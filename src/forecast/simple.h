// Simple reactive forecasters: moving average (Knative's default autoscaler
// logic) and keep-alive expressed in the concurrency representation.
//
// Both scan the last min(window, history.size()) samples oldest-first, and
// ForecastNext() runs the same scan on the stream's window, so it is
// bit-identical to Forecast(window, 1)[0]: these forecasters appear in the
// committed fleet goldens, which pin bits, not a tolerance. They keep no
// state, so the base BeginWindow/ObserveAppend no-ops serve. Rescanning is
// deliberate: windows are tiny (1-10 samples) and a running sum would
// reassociate the addition order.
#ifndef SRC_FORECAST_SIMPLE_H_
#define SRC_FORECAST_SIMPLE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/forecast/forecaster.h"

namespace femux {

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
  // every sample the batch scan would see in the stream's window.
  std::size_t preferred_history() const override {
    return std::max(kDefaultHistoryMinutes, window_);
  }
  double ForecastNext(std::span<const double> window) override;

 private:
  std::size_t window_;
  std::string name_;
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
  double ForecastNext(std::span<const double> window) override;

 private:
  std::size_t window_;
  std::string name_;
};

}  // namespace femux

#endif  // SRC_FORECAST_SIMPLE_H_
