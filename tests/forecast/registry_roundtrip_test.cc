// Registry round-trip (DESIGN.md §15): every name the registry resolves
// must construct, forecast sanely on a serverless-shaped series, clone,
// and pass a generic stream-vs-batch parity smoke at the mux gate bound
// (1e-7 scale-relative). Forecasters with opaque learned state additionally
// round-trip that state into a fresh instance with bit-identical
// forecasts. This is the contract FeMux relies on when a model file names
// a forecaster: anything the registry hands back serves correctly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/forecast/forecaster.h"
#include "src/forecast/registry.h"

namespace femux {
namespace {

// Every name MakeForecasterByName understands, including one instance of
// each parameterized family.
const char* const kAllNames[] = {
    "ar",        "setar",          "fft",
    "exp_smoothing", "holt",       "markov_chain",
    "lstm",      "linear_state",   "moving_average_3",
    "keep_alive_5min",
};

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
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.Uniform() < 0.2) {
      out[i] = 20.0 + 60.0 * rng.Uniform();
    }
  }
  return out;
}

std::vector<double> BatchRolling(Forecaster& forecaster,
                                 std::span<const double> series,
                                 std::size_t history_len, std::size_t warmup) {
  std::vector<double> out(series.size(), 0.0);
  const std::size_t window = std::max(history_len, forecaster.preferred_history());
  for (std::size_t t = warmup; t < series.size(); ++t) {
    const std::span<const double> history = series.subspan(0, t);
    const std::span<const double> windowed =
        history.size() > window ? history.last(window) : history;
    const auto prediction = forecaster.Forecast(windowed, 1);
    out[t] = prediction.empty() ? 0.0 : prediction.front();
  }
  return out;
}

TEST(RegistryRoundtripTest, EveryNameConstructsAndForecasts) {
  const auto series = BurstySeries(200, 11);
  for (const char* name : kAllNames) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Forecaster> forecaster = MakeForecasterByName(name);
    ASSERT_NE(forecaster, nullptr);
    EXPECT_FALSE(forecaster->name().empty());
    const auto prediction =
        forecaster->Forecast(std::span<const double>(series), 3);
    ASSERT_EQ(prediction.size(), 3u);
    for (double p : prediction) {
      EXPECT_TRUE(std::isfinite(p)) << p;
      EXPECT_GE(p, 0.0);
    }
    const std::unique_ptr<Forecaster> clone = forecaster->Clone();
    ASSERT_NE(clone, nullptr);
    EXPECT_EQ(clone->name(), forecaster->name());
    EXPECT_EQ(clone->HasOpaqueState(), forecaster->HasOpaqueState());
  }
}

TEST(RegistryRoundtripTest, EveryForecasterPassesStreamParitySmoke) {
  const auto series = BurstySeries(160, 23);
  for (const char* name : kAllNames) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Forecaster> prototype = MakeForecasterByName(name);
    ASSERT_NE(prototype, nullptr);
    const std::unique_ptr<Forecaster> batch_instance = prototype->Clone();
    const std::unique_ptr<Forecaster> incremental_instance = prototype->Clone();
    const auto batch = BatchRolling(*batch_instance, series, 120, 10);
    const auto incremental = RollingForecast(*incremental_instance, series, 120, 10);
    ASSERT_EQ(batch.size(), incremental.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const double scale =
          std::max({1.0, std::fabs(batch[t]), std::fabs(incremental[t])});
      EXPECT_LE(std::fabs(batch[t] - incremental[t]) / scale, 1e-7)
          << "t=" << t << " batch=" << batch[t]
          << " incremental=" << incremental[t];
    }
  }
}

TEST(RegistryRoundtripTest, OpaqueStateRoundTripsIntoFreshInstance) {
  const auto series = BurstySeries(300, 31);
  const auto window = BurstySeries(120, 47);
  for (const char* name : kAllNames) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Forecaster> trainer = MakeForecasterByName(name);
    ASSERT_NE(trainer, nullptr);
    if (!trainer->HasOpaqueState()) {
      EXPECT_TRUE(trainer->SaveOpaqueState().empty());
      continue;
    }
    // First call triggers the one-shot training path.
    trainer->Forecast(std::span<const double>(series), 1);
    const std::string blob = trainer->SaveOpaqueState();
    ASSERT_FALSE(blob.empty());
    // Blobs embed in single-token formats: printable, no whitespace.
    for (char c : blob) {
      EXPECT_TRUE(c > ' ' && c <= '~') << "byte " << static_cast<int>(c);
    }
    const std::unique_ptr<Forecaster> restored = MakeForecasterByName(name);
    ASSERT_TRUE(restored->LoadOpaqueState(blob));
    // Bit-exact round trip: blob re-save is identical, and forecasts from
    // the same window agree exactly.
    EXPECT_EQ(restored->SaveOpaqueState(), blob);
    const auto a = trainer->Forecast(std::span<const double>(window), 2);
    const auto b = restored->Forecast(std::span<const double>(window), 2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "i=" << i;
    }
  }
}

}  // namespace
}  // namespace femux
