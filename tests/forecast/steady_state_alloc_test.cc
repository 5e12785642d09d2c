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
#include <cstdio>
#include <memory>
#include <numbers>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench/alloc_hook.h"
#include "src/forecast/forecaster.h"
#include "src/forecast/registry.h"
#include "src/stats/fft.h"

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
    for (const std::size_t stride : {1u, 5u, 20u}) {
      EXPECT_EQ(SteadyStateAllocations(name, stride), 0u)
          << name << " at refit stride " << stride;
    }
  }
}

constexpr std::size_t kFftWindow = 2880;
// Bytes one fft stream may hold apart from the slide twiddles it shares:
// its ring (2 x 2,880 doubles), its bins (1,441 complex) and small state.
constexpr std::int64_t kMaxSharingFftStreamBytes = 72 * 1024;

// An fft stream at refit 33, seeded at its full window, that serves the
// demand series epoch by epoch.
struct FftTenant {
  explicit FftTenant(std::span<const double> demand)
      : series(demand),
        forecaster(MakeForecasterByName("fft", 33)),
        stream(std::make_unique<ForecastStream>(kWindowHint)) {
    EXPECT_EQ(forecaster->preferred_history(), kFftWindow);
    stream->Bind(*forecaster);
    stream->Restore(series.first(kFftWindow), kFftWindow);
    sink = stream->Forecast();
    served = kFftWindow;
  }
  // Serves `epochs` more samples of the series.
  void Serve(std::size_t epochs) {
    ASSERT_LE(served + epochs, series.size());
    for (const std::size_t end = served + epochs; served < end; ++served) {
      stream->Append(series[served]);
      sink += stream->Forecast();
    }
    EXPECT_TRUE(std::isfinite(sink));
  }
  // Destroys the stream and its forecaster; returns the bytes that frees,
  // which is everything the tenant kept alive that nothing else shares.
  std::int64_t Release() {
    const std::int64_t before = AllocHookLiveBytes();
    stream.reset();
    forecaster.reset();
    return before - AllocHookLiveBytes();
  }

  std::span<const double> series;
  std::unique_ptr<Forecaster> forecaster;
  std::unique_ptr<ForecastStream> stream;
  std::size_t served = 0;
  double sink = 0.0;
};

// The heap one more fft stream holds once another stream at the same
// capacity is warm. The slide twiddles come from the FFT plan of the
// window length, which both share. The stream is served past a full
// pending batch and a rebuild.
TEST(SteadyStateAllocationTest, SecondFftStreamSharesTheSlideTwiddles) {
  const std::vector<double> series = DemandSeries(kFftWindow + 600);
  FftTenant first(series);
  first.Serve(600);
  const std::int64_t before = AllocHookLiveBytes();
  FftTenant second(series);
  second.Serve(600);
  const std::int64_t held = AllocHookLiveBytes() - before;
  EXPECT_LE(held, kMaxSharingFftStreamBytes);
  RecordProperty("second_fft_stream_bytes", std::to_string(held));
  std::printf("second fft stream holds %lld bytes\n", static_cast<long long>(held));
}

// The plan cache evicts the window length's plan between two streams. A
// stream keeps only the twiddle table, not the plan (about 1.1 MB with its
// sub-plans), and takes the table again at each rebuild, so once the first
// stream has rebuilt, both share the rebuilt plan's table and each frees
// no more than its own ring, bins and state.
TEST(SteadyStateAllocationTest, FftStreamsShareTheSlideTwiddlesAcrossAnEviction) {
  const std::vector<double> series = DemandSeries(kFftWindow + 1200);
  FftTenant first(series);
  first.Serve(600);
  const std::size_t budget = SetFftCacheBudget(1);
  GetFftPlan(997);  // Its insert evicts every other plan.
  SetFftCacheBudget(budget);
  FftTenant second(series);
  second.Serve(600);
  first.Serve(600);  // Past its next 512-slide rebuild.
  const std::int64_t second_bytes = second.Release();
  const std::int64_t first_bytes = first.Release();
  EXPECT_LE(second_bytes, kMaxSharingFftStreamBytes);
  EXPECT_LE(first_bytes, kMaxSharingFftStreamBytes);
  std::printf("after an eviction the fft streams free %lld and %lld bytes\n",
              static_cast<long long>(first_bytes),
              static_cast<long long>(second_bytes));
}

}  // namespace
}  // namespace femux
