// Bit-exact incremental parity for the reactive forecasters (moving
// average, keep-alive). Unlike the fitted forecasters in
// incremental_parity_test.cc — which carry a <= 1e-9 reassociation bound —
// ForecastNext() runs the batch path's exact forward scan over the
// stream's window, so it must equal Forecast(window, 1)[0] to the bit. These two
// forecasters appear in the committed fleet goldens, which pin bit
// exactness; any drift here would silently break the golden determinism
// gate (tests/sim/fleet_determinism_test.cc).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/forecast/forecaster.h"
#include "src/forecast/simple.h"

namespace femux {
namespace {

// Deterministic xorshift so the series are stable across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ? seed : 1) {}
  double Uniform() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<double>(state_ % 1000000) / 1000000.0;
  }

 private:
  std::uint64_t state_;
};

std::vector<double> BurstySeries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n, 0.0);
  for (double& v : out) {
    if (rng.Uniform() < 0.15) {
      v = 50.0 + 100.0 * rng.Uniform();
    }
  }
  return out;
}

// The pre-existing batch rolling loop: refit Forecast() on each windowed
// prefix, no incremental state (same driver as incremental_parity_test).
std::vector<double> BatchRolling(const Forecaster& prototype,
                                 std::span<const double> series,
                                 std::size_t history_len, std::size_t warmup) {
  std::vector<double> out(series.size(), 0.0);
  const std::unique_ptr<Forecaster> forecaster = prototype.Clone();
  const std::size_t window =
      std::max(history_len, forecaster->preferred_history());
  for (std::size_t t = warmup; t < series.size(); ++t) {
    const std::span<const double> history = series.subspan(0, t);
    const std::span<const double> windowed =
        history.size() > window ? history.last(window) : history;
    const auto prediction = forecaster->Forecast(windowed, 1);
    out[t] = prediction.empty() ? 0.0 : prediction.front();
  }
  return out;
}

void ExpectBitExact(const Forecaster& prototype, std::span<const double> series,
                    std::size_t history_len, std::size_t warmup) {
  const auto batch = BatchRolling(prototype, series, history_len, warmup);
  const std::unique_ptr<Forecaster> incremental = prototype.Clone();
  const auto rolled = RollingForecast(*incremental, series, history_len, warmup);
  ASSERT_EQ(batch.size(), rolled.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    // Compare bits, not values: bit_cast catches -0.0 vs 0.0 and NaN
    // payload drift that operator== would wave through.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[t]),
              std::bit_cast<std::uint64_t>(rolled[t]))
        << "t=" << t << " batch=" << batch[t] << " incremental=" << rolled[t];
  }
}

TEST(SimpleIncrementalTest, MovingAverageBitExactAcrossWindows) {
  const std::vector<double> series = BurstySeries(400, 42);
  for (std::size_t window : {1u, 3u, 10u}) {
    SCOPED_TRACE(window);
    ExpectBitExact(MovingAverageForecaster(window), series, 120, 10);
  }
}

TEST(SimpleIncrementalTest, KeepAliveBitExactAcrossWindows) {
  const std::vector<double> series = BurstySeries(400, 7);
  for (std::size_t window : {5u, 10u}) {
    SCOPED_TRACE(window);
    ExpectBitExact(KeepAliveForecaster(window), series, 120, 10);
  }
}

TEST(SimpleIncrementalTest, ShortHistoryAndRingWrap) {
  // history_len below the window forces the partial-window branch, and a
  // long series slides the stream's ring through many compactions.
  const std::vector<double> series = BurstySeries(2000, 99);
  ExpectBitExact(MovingAverageForecaster(10), series, 4, 0);
  ExpectBitExact(KeepAliveForecaster(10), series, 4, 0);
}

TEST(SimpleIncrementalTest, BeginWindowReseedsMidSeries) {
  // A serving stream can re-anchor mid-series (checkpoint restore,
  // Reset): BeginWindow on a later prefix must leave the forecaster in the
  // same state as a fresh one started there.
  const std::vector<double> series = BurstySeries(300, 5);
  static constexpr std::size_t kCapacity = 64;
  const std::span<const double> all(series);
  const auto window = [all](std::size_t t) {
    return all.first(t).last(std::min(t, kCapacity));
  };
  MovingAverageForecaster continued(3);
  continued.BeginWindow(window(50), kCapacity);
  for (std::size_t t = 50; t < 200; ++t) {
    continued.ObserveAppend(window(t), window(t + 1));
  }
  // Re-anchor at t=200 with the last 64 samples, as a restore would.
  continued.BeginWindow(window(200), kCapacity);

  MovingAverageForecaster fresh(3);
  fresh.BeginWindow(window(200), kCapacity);

  for (std::size_t t = 200; t < series.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(continued.ForecastNext(window(t))),
              std::bit_cast<std::uint64_t>(fresh.ForecastNext(window(t))))
        << "t=" << t;
    continued.ObserveAppend(window(t), window(t + 1));
    fresh.ObserveAppend(window(t), window(t + 1));
  }
}

}  // namespace
}  // namespace femux
