// LinearStateForecaster (DESIGN.md §15): incremental-vs-batch parity at
// the mux gate bound, bit-exact growing phase, opaque-state round trips,
// malformed-blob rejection, randomized denormal/negative-zero stability,
// and force-ISA agreement of the GemvColMajor-driven recurrence.
#include "src/forecast/linear_state.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/forecast/forecaster.h"
#include "src/stats/simd.h"

namespace femux {
namespace {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ? seed : 1) {}
  std::uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  double Uniform() { return static_cast<double>(Next() % 1000000) / 1000000.0; }

 private:
  std::uint64_t state_;
};

std::vector<double> RandomSeries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) {
    v = 10.0 * rng.Uniform();
  }
  return out;
}

std::vector<double> BurstySeries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.Uniform() < 0.15) {
      out[i] = 50.0 + 100.0 * rng.Uniform();
    }
  }
  return out;
}

// Series salted with the awkward encodings the denormal-stability property
// covers: negative zero and denormals mixed into ordinary bursts.
std::vector<double> SaltedSeries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pick = rng.Next() % 8;
    if (pick == 0) {
      out[i] = -0.0;
    } else if (pick == 1) {
      out[i] = 5e-324;
    } else if (pick == 2) {
      out[i] = 1e-310;
    } else if (pick < 5) {
      out[i] = 30.0 + 50.0 * rng.Uniform();
    }
  }
  return out;
}

std::vector<double> BatchRolling(const Forecaster& prototype,
                                 std::span<const double> series,
                                 std::size_t history_len, std::size_t warmup) {
  std::vector<double> out(series.size(), 0.0);
  const std::unique_ptr<Forecaster> forecaster = prototype.Clone();
  const std::size_t window = std::max(history_len, forecaster->preferred_history());
  for (std::size_t t = warmup; t < series.size(); ++t) {
    const std::span<const double> history = series.subspan(0, t);
    const std::span<const double> windowed =
        history.size() > window ? history.last(window) : history;
    const auto prediction = forecaster->Forecast(windowed, 1);
    out[t] = prediction.empty() ? 0.0 : prediction.front();
  }
  return out;
}

std::vector<double> IncrementalRolling(const Forecaster& prototype,
                                       std::span<const double> series,
                                       std::size_t history_len,
                                       std::size_t warmup) {
  const std::unique_ptr<Forecaster> forecaster = prototype.Clone();
  return RollingForecast(*forecaster, series, history_len, warmup);
}

void ExpectSeriesNear(const std::vector<double>& batch,
                      const std::vector<double>& incremental, double bound) {
  ASSERT_EQ(batch.size(), incremental.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    const double scale =
        std::max({1.0, std::fabs(batch[t]), std::fabs(incremental[t])});
    EXPECT_LE(std::fabs(batch[t] - incremental[t]) / scale, bound)
        << "t=" << t << " batch=" << batch[t] << " incremental=" << incremental[t];
  }
}

TEST(LinearStateTest, IncrementalParityAtMuxBound) {
  const LinearStateForecaster prototype;
  const struct {
    const char* label;
    std::vector<double> series;
  } cases[] = {
      {"random", RandomSeries(400, 42)},
      {"bursty", BurstySeries(400, 7)},
      {"constant", std::vector<double>(300, 3.5)},
      {"all_zero", std::vector<double>(300, 0.0)},
      {"salted", SaltedSeries(400, 91)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    const auto batch = BatchRolling(prototype, c.series, 120, 10);
    const auto incremental = IncrementalRolling(prototype, c.series, 120, 10);
    ExpectSeriesNear(batch, incremental, 1e-7);
  }
}

TEST(LinearStateTest, GrowingPhaseIsBitExact) {
  // Until the fold window first fills, the incremental path runs the exact
  // batch step sequence — bit-identical predictions.
  const LinearStateForecaster prototype;
  const auto series = BurstySeries(300, 13);
  const auto batch = BatchRolling(prototype, series, 120, 10);
  const auto incremental = IncrementalRolling(prototype, series, 120, 10);
  ASSERT_EQ(batch.size(), incremental.size());
  for (std::size_t t = 0; t <= 120 && t < batch.size(); ++t) {
    EXPECT_EQ(batch[t], incremental[t]) << "t=" << t;
  }
}

TEST(LinearStateTest, LongSlideExercisesPeriodicRebuild) {
  // > 512 slides at full window so the drift-bounding rebuild path runs.
  const LinearStateForecaster prototype;
  const auto series = BurstySeries(900, 29);
  const auto batch = BatchRolling(prototype, series, 120, 10);
  const auto incremental = IncrementalRolling(prototype, series, 120, 10);
  ExpectSeriesNear(batch, incremental, 1e-7);
}

TEST(LinearStateTest, SaltedInputsStayFiniteAndNonNegative) {
  LinearStateForecaster forecaster;
  const auto series = SaltedSeries(300, 77);
  const auto rolling = RollingForecast(forecaster, series, 120, 10);
  for (std::size_t t = 0; t < rolling.size(); ++t) {
    EXPECT_TRUE(std::isfinite(rolling[t])) << "t=" << t;
    EXPECT_GE(rolling[t], 0.0) << "t=" << t;
  }
}

TEST(LinearStateTest, OpaqueStateRoundTripIsBitExact) {
  LinearStateForecaster trained;
  const auto series = BurstySeries(500, 3);
  trained.TrainOnSeries(series);
  ASSERT_TRUE(trained.trained());
  const std::string blob = trained.SaveOpaqueState();
  ASSERT_FALSE(blob.empty());

  LinearStateForecaster restored;
  ASSERT_TRUE(restored.LoadOpaqueState(blob));
  EXPECT_EQ(restored.SaveOpaqueState(), blob);

  const auto window = BurstySeries(150, 57);
  const auto a = trained.Forecast(std::span<const double>(window), 3);
  const auto b = restored.Forecast(std::span<const double>(window), 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "i=" << i;
  }
}

TEST(LinearStateTest, RestoredStatePlusReseedMatchesContinuousDecisions) {
  // The daemon's kill-restart model: opaque state + retained ring window
  // must reproduce the uninterrupted instance's decisions within the mux
  // bound.
  const auto series = BurstySeries(400, 19);
  LinearStateForecaster continuous;
  ForecastStream continuous_stream(120);
  continuous_stream.Bind(continuous);
  const std::size_t cut = 250;
  for (std::size_t t = 10; t < cut; ++t) {
    continuous_stream.Sync(std::span<const double>(series).subspan(0, t));
    continuous_stream.Forecast();
  }
  // "Crash": serialize trained state, keep only the last 120 samples.
  const std::string blob = continuous.SaveOpaqueState();
  LinearStateForecaster restored;
  ASSERT_TRUE(restored.LoadOpaqueState(blob));
  // The daemon's restore order: Bind sizes the ring, Restore re-seeds.
  ForecastStream restored_stream(120);
  restored_stream.Bind(restored);
  restored_stream.Restore(std::span<const double>(series).subspan(cut - 1 - 120, 120),
                          cut - 1);
  for (std::size_t t = cut; t < series.size(); ++t) {
    const auto history = std::span<const double>(series).subspan(0, t);
    continuous_stream.Sync(history);
    restored_stream.Append(history.back());
    const double a = continuous_stream.Forecast();
    const double b = restored_stream.Forecast();
    const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    EXPECT_LE(std::fabs(a - b) / scale, 1e-7) << "t=" << t;
  }
}

TEST(LinearStateTest, LoadRejectsMalformedBlobsUnchanged) {
  LinearStateForecaster trained;
  trained.TrainOnSeries(BurstySeries(400, 41));
  const std::string good = trained.SaveOpaqueState();

  LinearStateForecaster target;
  ASSERT_TRUE(target.LoadOpaqueState(good));
  const std::string before = target.SaveOpaqueState();

  EXPECT_FALSE(target.LoadOpaqueState(""));
  EXPECT_FALSE(target.LoadOpaqueState("garbage"));
  EXPECT_FALSE(target.LoadOpaqueState("lstmv1;16;48;1;0x1p+0"));
  EXPECT_FALSE(target.LoadOpaqueState("lsv1;8;120;1;0x1p+0"));  // Wrong dim.
  EXPECT_FALSE(target.LoadOpaqueState(good.substr(0, good.size() / 2)));
  // A rejected load leaves the instance untouched.
  EXPECT_EQ(target.SaveOpaqueState(), before);
}

TEST(LinearStateTest, ForecastsAgreeBitwiseAcrossForcedIsas) {
  // The recurrence runs on GemvColMajor; the kernel parity contract makes
  // the whole forecaster ISA-invariant. Train once, then compare batch
  // forecasts and full incremental rollouts under each forced table.
  LinearStateForecaster trained;
  const auto series = BurstySeries(500, 67);
  trained.TrainOnSeries(series);
  const std::string blob = trained.SaveOpaqueState();
  const auto window = BurstySeries(200, 71);

  ASSERT_TRUE(simd::ForceIsaForTest("scalar"));
  LinearStateForecaster scalar_instance;
  ASSERT_TRUE(scalar_instance.LoadOpaqueState(blob));
  const auto scalar_pred =
      scalar_instance.Forecast(std::span<const double>(window), 2);
  const auto scalar_roll = RollingForecast(scalar_instance, window, 120, 10);

  for (const char* isa : {"avx2", "avx512"}) {
    if (!simd::ForceIsaForTest(isa)) {
      continue;  // Not compiled in / unsupported CPU: nothing to compare.
    }
    SCOPED_TRACE(isa);
    LinearStateForecaster vec_instance;
    ASSERT_TRUE(vec_instance.LoadOpaqueState(blob));
    const auto vec_pred = vec_instance.Forecast(std::span<const double>(window), 2);
    const auto vec_roll = RollingForecast(vec_instance, window, 120, 10);
    ASSERT_EQ(scalar_pred.size(), vec_pred.size());
    for (std::size_t i = 0; i < scalar_pred.size(); ++i) {
      EXPECT_EQ(scalar_pred[i], vec_pred[i]) << "i=" << i;
    }
    ASSERT_EQ(scalar_roll.size(), vec_roll.size());
    for (std::size_t t = 0; t < scalar_roll.size(); ++t) {
      EXPECT_EQ(scalar_roll[t], vec_roll[t]) << "t=" << t;
    }
  }
  simd::ForceIsaForTest("");
}

TEST(LinearStateTest, ClonesStartFreshButShareConfiguration) {
  LinearStateForecaster trained;
  trained.TrainOnSeries(BurstySeries(400, 83));
  ASSERT_TRUE(trained.trained());
  const std::unique_ptr<Forecaster> clone = trained.Clone();
  auto* typed = dynamic_cast<LinearStateForecaster*>(clone.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_FALSE(typed->trained());
  EXPECT_EQ(typed->preferred_history(), trained.preferred_history());
  // But state transfers explicitly through the opaque blob.
  ASSERT_TRUE(typed->LoadOpaqueState(trained.SaveOpaqueState()));
  EXPECT_TRUE(typed->trained());
}

}  // namespace
}  // namespace femux
