// Simple reactive forecasters: moving average (Knative's default autoscaler
// logic) and keep-alive expressed in the concurrency representation.
#ifndef SRC_FORECAST_SIMPLE_H_
#define SRC_FORECAST_SIMPLE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/forecast/forecaster.h"

namespace femux {

// Shared sliding-window state for the two reactive forecasters. Both batch
// paths scan the last min(window, history.size()) samples oldest-first; the
// incremental path keeps exactly those samples in a fixed circular buffer
// and replays the identical forward scan per forecast, so ForecastNext() is
// bit-identical to Forecast(window, 1)[0] — these forecasters appear in the
// committed fleet goldens, which pin bit-exactness, not a tolerance.
// Recomputing the O(window) scan per epoch is deliberate: windows are tiny
// (1–10 samples) and a running sum would reassociate the addition order.
class ReactiveWindow {
 public:
  void Begin(std::span<const double> history, std::size_t window);
  void Append(double value);
  std::size_t size() const { return count_; }
  // Sample i in oldest-first order, i < size().
  double At(std::size_t i) const {
    return buffer_[(start_ + i) % buffer_.size()];
  }

 private:
  std::vector<double> buffer_;
  std::size_t start_ = 0;
  std::size_t count_ = 0;
};

// Mean of the last `window` samples — Knative's stable-mode autoscaler uses
// a 1-minute sliding average of concurrency (§3.2), which at minute-scale
// data is a window of 1; the characterization study also uses longer ones.
class MovingAverageForecaster final : public Forecaster {
 public:
  explicit MovingAverageForecaster(std::size_t window = 1);

  std::string_view name() const override { return name_; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override;
  std::unique_ptr<Forecaster> Clone() const override;

  // Streams window history to at least this; returning >= window_ keeps
  // the incremental ring seeded with every sample the batch scan would see.
  std::size_t preferred_history() const override {
    return std::max(kDefaultHistoryMinutes, window_);
  }
  bool SupportsIncremental() const override { return true; }
  void BeginWindow(std::span<const double> history,
                   std::size_t capacity) override;
  void ObserveAppend(double value) override;
  double ForecastNext() override;

 private:
  std::size_t window_;
  std::string name_;
  ReactiveWindow recent_;
};

// Max of the last `window` samples. In the average-concurrency domain this
// reproduces a fixed keep-alive policy: any capacity used in the last
// `window` minutes is kept provisioned. A 5-minute keep-alive (AWS-style)
// is KeepAliveForecaster(5); a 10-minute one is KeepAliveForecaster(10).
class KeepAliveForecaster final : public Forecaster {
 public:
  explicit KeepAliveForecaster(std::size_t window_minutes);

  std::string_view name() const override { return name_; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override;
  std::unique_ptr<Forecaster> Clone() const override;

  std::size_t preferred_history() const override {
    return std::max(kDefaultHistoryMinutes, window_);
  }
  bool SupportsIncremental() const override { return true; }
  void BeginWindow(std::span<const double> history,
                   std::size_t capacity) override;
  void ObserveAppend(double value) override;
  double ForecastNext() override;

 private:
  std::size_t window_;
  std::string name_;
  ReactiveWindow recent_;
};

}  // namespace femux

#endif  // SRC_FORECAST_SIMPLE_H_
