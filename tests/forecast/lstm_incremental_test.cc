// LSTM incremental serving (DESIGN.md §15): the sliding-window semantics
// replay the forward pass from the zero state over the retained ring, so
// incremental and batch paths must agree bit-for-bit — both on the cheap
// degenerate-training path and on a genuinely trained network restored
// from its opaque blob. The forward pass runs on the SIMD GemvColMajor
// kernel, so forced-ISA agreement is also checked bitwise.
#include "src/forecast/lstm.h"

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

// Small network so the genuinely-trained cases stay fast.
LstmOptions SmallOptions() {
  LstmOptions options;
  options.hidden = 8;
  options.epochs = 2;
  options.max_train_windows = 200;
  return options;
}

TEST(LstmIncrementalTest, UntrainedPathParityIsBitExact) {
  // Both paths hit the one-shot training on the same short prefix (which
  // goes degenerate below window+1 samples) and must then replay identical
  // forward passes.
  const auto series = BurstySeries(160, 5);
  LstmForecaster batch_instance(SmallOptions());
  LstmForecaster incremental_instance(SmallOptions());
  const auto batch = BatchRolling(batch_instance, series, 120, 10);
  const auto incremental = RollingForecast(incremental_instance, series, 120, 10);
  ASSERT_EQ(batch.size(), incremental.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    EXPECT_EQ(batch[t], incremental[t]) << "t=" << t;
  }
}

TEST(LstmIncrementalTest, TrainedStateParityIsBitExact) {
  // Train once, clone the trained parameters through the opaque blob into
  // a batch instance and an incremental instance: every rolling forecast
  // must agree bit-for-bit, because both replay the same forward pass over
  // the same window.
  LstmForecaster trained(SmallOptions());
  trained.TrainOnSeries(BurstySeries(220, 17));
  ASSERT_TRUE(trained.trained());
  const std::string blob = trained.SaveOpaqueState();
  ASSERT_FALSE(blob.empty());

  LstmForecaster batch_instance(SmallOptions());
  LstmForecaster incremental_instance(SmallOptions());
  ASSERT_TRUE(batch_instance.LoadOpaqueState(blob));
  ASSERT_TRUE(incremental_instance.LoadOpaqueState(blob));

  const auto series = BurstySeries(200, 23);
  const auto batch = BatchRolling(batch_instance, series, 120, 10);
  const auto incremental = RollingForecast(incremental_instance, series, 120, 10);
  ASSERT_EQ(batch.size(), incremental.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    EXPECT_EQ(batch[t], incremental[t]) << "t=" << t;
  }
}

TEST(LstmIncrementalTest, OpaqueStateRoundTripIsBitExact) {
  LstmForecaster trained(SmallOptions());
  trained.TrainOnSeries(BurstySeries(220, 29));
  const std::string blob = trained.SaveOpaqueState();
  ASSERT_FALSE(blob.empty());

  LstmForecaster restored(SmallOptions());
  ASSERT_TRUE(restored.LoadOpaqueState(blob));
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.SaveOpaqueState(), blob);

  const auto window = BurstySeries(120, 31);
  const auto a = trained.Forecast(std::span<const double>(window), 2);
  const auto b = restored.Forecast(std::span<const double>(window), 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "i=" << i;
  }
}

TEST(LstmIncrementalTest, LoadRejectsMalformedBlobsUnchanged) {
  LstmForecaster trained(SmallOptions());
  trained.TrainOnSeries(BurstySeries(220, 37));
  const std::string good = trained.SaveOpaqueState();

  LstmForecaster target(SmallOptions());
  ASSERT_TRUE(target.LoadOpaqueState(good));
  const std::string before = target.SaveOpaqueState();

  EXPECT_FALSE(target.LoadOpaqueState(""));
  EXPECT_FALSE(target.LoadOpaqueState("garbage"));
  EXPECT_FALSE(target.LoadOpaqueState("lsv1;16;120;1;0x1p+0"));
  EXPECT_FALSE(target.LoadOpaqueState(good.substr(0, good.size() / 2)));
  // A mismatched hidden size is an incompatible configuration.
  LstmOptions wide = SmallOptions();
  wide.hidden = 16;
  LstmForecaster wide_instance(wide);
  EXPECT_FALSE(wide_instance.LoadOpaqueState(good));
  // A rejected load leaves the instance untouched.
  EXPECT_EQ(target.SaveOpaqueState(), before);
}

TEST(LstmIncrementalTest, ForecastsAgreeBitwiseAcrossForcedIsas) {
  LstmForecaster trained(SmallOptions());
  trained.TrainOnSeries(BurstySeries(220, 43));
  const std::string blob = trained.SaveOpaqueState();
  const auto window = BurstySeries(160, 47);

  ASSERT_TRUE(simd::ForceIsaForTest("scalar"));
  LstmForecaster scalar_instance(SmallOptions());
  ASSERT_TRUE(scalar_instance.LoadOpaqueState(blob));
  const auto scalar_pred =
      scalar_instance.Forecast(std::span<const double>(window), 2);
  const auto scalar_roll = RollingForecast(scalar_instance, window, 120, 10);

  for (const char* isa : {"avx2", "avx512"}) {
    if (!simd::ForceIsaForTest(isa)) {
      continue;  // Not compiled in / unsupported CPU: nothing to compare.
    }
    SCOPED_TRACE(isa);
    LstmForecaster vec_instance(SmallOptions());
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

}  // namespace
}  // namespace femux
