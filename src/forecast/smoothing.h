// Exponential-smoothing family: simple exponential smoothing (Gardner '85)
// for dense, trendless traffic, and Holt's double exponential smoothing
// (Chatfield & Yar '88) for trending traffic. Both select their smoothing
// parameters dynamically per call by minimizing in-sample one-step error
// over a small grid ("dynamic parameter selection", §4.3.3).
//
// Both are stateless and serve every call, the online one-step forecast
// included, from the window through one register-blocked grid sweep
// (simd::SesSweep / simd::HoltSweep). They keep no incremental state: the
// sweep over a 120-sample window costs about as much as maintaining
// sliding folds of the grid did, and keeping the working set to the
// caller's window is what makes it faster at fleet scale (DESIGN.md §7).
// ForecastNext() is the one-step forecast, bit-identical to
// Forecast(window, 1)[0] without the result vector (SES's Forecast()
// repeats it; Holt's takes its short-window branch from it); the base
// BeginWindow/ObserveAppend no-ops serve.
#ifndef SRC_FORECAST_SMOOTHING_H_
#define SRC_FORECAST_SMOOTHING_H_

#include <vector>

#include "src/forecast/forecaster.h"

namespace femux {

class ExponentialSmoothingForecaster final : public Forecaster {
 public:
  ExponentialSmoothingForecaster() = default;

  std::string_view name() const override { return "exp_smoothing"; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override;
  std::unique_ptr<Forecaster> Clone() const override;

  double ForecastNext(std::span<const double> window) override;
};

class HoltForecaster final : public Forecaster {
 public:
  HoltForecaster() = default;

  std::string_view name() const override { return "holt"; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override;
  std::unique_ptr<Forecaster> Clone() const override;

  double ForecastNext(std::span<const double> window) override;
};

}  // namespace femux

#endif  // SRC_FORECAST_SMOOTHING_H_
