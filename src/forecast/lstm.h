// From-scratch single-layer LSTM forecaster.
//
// This is the substrate for the Aquatope comparison (§5.1.1): Aquatope
// trains an LSTM per application on the first 7 days of its trace and
// predicts the remainder. We implement the network directly (forward pass,
// backpropagation through time, Adam) instead of binding a ML framework.
// The comparison's point is architectural — a heavyweight learned model
// trains slowly, infers slowly, and adapts slowly to bursts — and those
// properties are preserved.
#ifndef SRC_FORECAST_LSTM_H_
#define SRC_FORECAST_LSTM_H_

#include <cstddef>
#include <cstdint>

#include "src/forecast/forecaster.h"

namespace femux {

struct LstmOptions {
  std::size_t hidden = 16;
  std::size_t window = 48;     // Aquatope's 48-minute input window.
  std::size_t epochs = 3;
  std::size_t max_train_windows = 2000;  // Subsample long series.
  double learning_rate = 5e-3;
  std::uint64_t seed = 99;
};

class LstmForecaster final : public Forecaster {
 public:
  explicit LstmForecaster(LstmOptions options = {});
  ~LstmForecaster() override;
  LstmForecaster(const LstmForecaster&);
  LstmForecaster& operator=(const LstmForecaster&) = delete;

  std::string_view name() const override { return "lstm"; }

  // Trains on a full series (teacher forcing over sliding windows) and
  // records the normalization scale. Returns the final epoch's mean
  // squared error in normalized space.
  double TrainOnSeries(std::span<const double> series);

  bool trained() const;

  // If untrained, performs a one-shot training pass on `history` first
  // (cached), then predicts. This keeps the class usable as a plain
  // Forecaster, at realistic cost.
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override;
  std::unique_ptr<Forecaster> Clone() const override;

  // Incremental serving (DESIGN.md §15). The sliding-window semantics run
  // each forecast from the zero state over the last `window` samples, so
  // ForecastNext replays the forward pass over the last `window` samples
  // of the stream's window — O(window * hidden^2) per epoch independent of
  // history length, with no re-training and bit-exact agreement with the
  // batch path. The forward pass itself runs on the SIMD GemvColMajor
  // kernel. No window state is kept, so the base ObserveAppend serves.
  void BeginWindow(std::span<const double> window, std::size_t capacity) override;
  double ForecastNext(std::span<const double> window) override;

  // Opaque learned state: all trained weights plus the normalization
  // scale, round-tripped bit-exactly. Adam moments are serving-irrelevant
  // and are not serialized (a restored instance restarts the optimizer
  // cold if it is ever re-trained).
  bool HasOpaqueState() const override { return true; }
  std::string SaveOpaqueState() const override;
  bool LoadOpaqueState(std::string_view blob) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace femux

#endif  // SRC_FORECAST_LSTM_H_
