// Cross-forecaster property sweeps: every forecaster in the registry is
// exercised against a family of canonical signal shapes and must satisfy
// shape-specific sanity bounds. These are the behavioral contracts FeMux's
// multiplexing relies on.
#include <cmath>
#include <numbers>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/forecast/registry.h"
#include "src/stats/descriptive.h"
#include "src/stats/rng.h"

namespace femux {
namespace {

enum class Signal { kConstant, kRamp, kSine, kNoise, kOnOff };

std::string SignalName(Signal s) {
  switch (s) {
    case Signal::kConstant:
      return "constant";
    case Signal::kRamp:
      return "ramp";
    case Signal::kSine:
      return "sine";
    case Signal::kNoise:
      return "noise";
    case Signal::kOnOff:
      return "onoff";
  }
  return "?";
}

std::vector<double> MakeSignal(Signal s, std::size_t n) {
  Rng rng(static_cast<std::uint64_t>(s) * 77 + 5);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (s) {
      case Signal::kConstant:
        v[i] = 7.0;
        break;
      case Signal::kRamp:
        v[i] = 1.0 + 0.05 * static_cast<double>(i);
        break;
      case Signal::kSine:
        v[i] = 10.0 + 6.0 * std::sin(2.0 * std::numbers::pi *
                                     static_cast<double>(i) / 60.0);
        break;
      case Signal::kNoise:
        v[i] = std::max(0.0, rng.Normal(5.0, 2.0));
        break;
      case Signal::kOnOff:
        v[i] = (i / 30) % 2 == 0 ? 8.0 : 0.0;
        break;
    }
  }
  return v;
}

using Param = std::tuple<const char*, Signal>;

class ForecasterPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(ForecasterPropertyTest, PredictionsStayWithinSignalEnvelope) {
  const auto [name, signal] = GetParam();
  const auto forecaster = MakeForecasterByName(name);
  ASSERT_NE(forecaster, nullptr);
  const std::vector<double> history = MakeSignal(signal, 240);
  double peak = 0.0;
  for (double v : history) {
    peak = std::max(peak, v);
  }
  const auto out = forecaster->Forecast(history, 5);
  for (double v : out) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
    // The roll-forward bound: no forecaster may provision more than ~3x the
    // observed peak plus slack (trend extrapolation allowed some headroom).
    EXPECT_LE(v, 3.5 * peak + 2.0) << name << " on " << SignalName(signal);
  }
}

TEST_P(ForecasterPropertyTest, ConstantSignalPredictedAccurately) {
  const auto [name, signal] = GetParam();
  if (signal != Signal::kConstant) {
    GTEST_SKIP();
  }
  const auto forecaster = MakeForecasterByName(name);
  const std::vector<double> history = MakeSignal(signal, 240);
  EXPECT_NEAR(forecaster->Forecast(history, 1)[0], 7.0, 0.5) << name;
}

TEST_P(ForecasterPropertyTest, RollingForecastTracksSlowSignals) {
  const auto [name, signal] = GetParam();
  if (signal == Signal::kOnOff || signal == Signal::kNoise) {
    GTEST_SKIP();  // Discontinuous/noisy signals have no pointwise bound.
  }
  if (signal == Signal::kRamp && std::string(name) == "fft") {
    // A pure trend is FFT's known blind spot: the harmonic model is
    // window-periodic, so it wraps the ramp around instead of extending it
    // (exactly why FeMux routes trending blocks to Holt, §4.3.3).
    GTEST_SKIP();
  }
  const auto forecaster = MakeForecasterByName(name);
  const std::vector<double> series = MakeSignal(signal, 360);
  const auto pred = RollingForecast(*forecaster, series, 120, 60);
  // Mean absolute error over the evaluated tail must be far below the
  // signal scale for smooth signals.
  double mae = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 120; t < series.size(); ++t) {
    mae += std::abs(pred[t] - series[t]);
    ++count;
  }
  mae /= static_cast<double>(count);
  const double scale = Mean(series) + 1.0;
  EXPECT_LT(mae, 0.5 * scale) << name << " on " << SignalName(signal);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ForecasterPropertyTest,
    ::testing::Combine(::testing::Values("ar", "setar", "fft", "exp_smoothing",
                                         "holt", "markov_chain", "moving_average_1",
                                         "keep_alive_5min"),
                       ::testing::Values(Signal::kConstant, Signal::kRamp,
                                         Signal::kSine, Signal::kNoise,
                                         Signal::kOnOff)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             SignalName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace femux
