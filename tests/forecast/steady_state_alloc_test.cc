// Zero heap allocations per steady-state epoch on the incremental path.
//
// The forecasters read their window from the ForecastStream's ring and keep
// only fixed-size state (Gram sums, a sorted view, spectrum bins, a linear
// state, a solver workspace) or none (SES and Holt sweep the window on the
// stack), so once a stream is warm an epoch of Append +
// Forecast must not touch the heap. This binary links bench/alloc_hook.cc,
// which replaces the global operator new with a counting one; each stream
// is warmed past its window and one 512-slide rebuild or recount interval,
// then counted over kCountedEpochs more with nothing but the epochs inside
// the counted loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <string_view>
#include <vector>

#include "bench/alloc_hook.h"
#include "src/forecast/forecaster.h"
#include "src/forecast/registry.h"

namespace femux {
namespace {

constexpr std::size_t kWindowHint = 120;
// After the window fills: more than one 512-slide rebuild/recount interval.
constexpr std::size_t kSettleEpochs = 1024;
constexpr std::size_t kCountedEpochs = 2048;

// Deterministic demand: a daily cycle with noise and bursts, cut by idle
// stretches, so the forecasters' degenerate-window, recount and refit
// branches all run.
std::vector<double> DemandSeries(std::size_t n) {
  std::vector<double> out(n);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (std::size_t t = 0; t < n; ++t) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double noise = static_cast<double>(state % 1000) / 1000.0;
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(t) / 1440.0;
    const double cycle = 4.0 + 3.0 * std::sin(phase);
    const bool idle = (t / 300) % 5 == 3;
    const bool burst = state % 97 == 0;
    out[t] = idle ? 0.0 : cycle + noise + (burst ? 20.0 : 0.0);
  }
  return out;
}

// Operator-new calls over kCountedEpochs epochs of a warm stream.
std::uint64_t SteadyStateAllocations(std::string_view name, std::size_t stride) {
  const std::unique_ptr<Forecaster> forecaster = MakeForecasterByName(name, stride);
  EXPECT_NE(forecaster, nullptr);
  EXPECT_TRUE(forecaster->SupportsIncremental());
  const std::size_t warmup =
      std::max(kWindowHint, forecaster->preferred_history()) + kSettleEpochs;
  const std::vector<double> series = DemandSeries(warmup + kCountedEpochs);
  ForecastStream stream(kWindowHint);
  stream.Bind(*forecaster);
  double sink = 0.0;
  for (std::size_t t = 0; t < warmup; ++t) {
    stream.Append(series[t]);
    sink += stream.Forecast();
  }
  const std::uint64_t before = AllocHookCount();
  for (std::size_t t = warmup; t < series.size(); ++t) {
    stream.Append(series[t]);
    sink += stream.Forecast();
  }
  const std::uint64_t after = AllocHookCount();
  EXPECT_TRUE(std::isfinite(sink));
  return after - before;
}

TEST(SteadyStateAllocationTest, IncrementalEpochsAllocateNothing) {
  for (const std::string_view name :
       {"ar", "fft", "markov_chain", "linear_state", "moving_average_1",
        "keep_alive_5min", "holt", "exp_smoothing"}) {
    for (const std::size_t stride : {1u, 5u}) {
      EXPECT_EQ(SteadyStateAllocations(name, stride), 0u)
          << name << " at refit stride " << stride;
    }
  }
}

}  // namespace
}  // namespace femux
