// Factory for the paper's forecaster set (§4.3.3) and name-based lookup.
#ifndef SRC_FORECAST_REGISTRY_H_
#define SRC_FORECAST_REGISTRY_H_

#include <memory>
#include <string_view>
#include <vector>

#include "src/forecast/forecaster.h"

namespace femux {

// FeMux's default Forecaster Unit: AR(10), SETAR(10, 2 thresholds),
// FFT(top-10 harmonics), Exponential Smoothing, Holt, Markov Chain(4),
// 5-minute keep-alive and the 1-minute moving average, built by name.
// `refit_interval` controls how often AR/SETAR/FFT re-estimate their models
// (1 = every call; offline simulation uses a larger stride for speed).
// A model with learned members ("linear_state", DESIGN.md §15) names its
// set in TrainerOptions::forecaster_names instead.
std::vector<std::unique_ptr<Forecaster>> MakeFemuxForecasterSet(
    std::size_t refit_interval = 1);

// Builds a forecaster by name: "ar", "setar", "fft", "exp_smoothing",
// "holt", "markov_chain", "moving_average_<w>", "keep_alive_<w>min",
// "lstm", "linear_state". Returns nullptr for unknown names. This is the one
// place a name maps to a constructor. `refit_interval` is the refit stride
// of "ar", "setar" and "fft"; the other forecasters ignore it.
std::unique_ptr<Forecaster> MakeForecasterByName(std::string_view name,
                                                 std::size_t refit_interval = 1);

}  // namespace femux

#endif  // SRC_FORECAST_REGISTRY_H_
