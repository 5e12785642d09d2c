// Parity tests for the incremental sliding-window protocol (DESIGN.md §7):
// driving a forecaster through ForecastStream must agree with the
// pre-existing batch path (a fresh forecaster refit on every windowed
// prefix) within each forecaster's documented bound — bit-identical for
// the base ForecastNext() default and the stateless sweeps (SES and Holt),
// <= 1e-9 scale-relative where the protocol inherently reassociates sums
// (AR Gram updates, Markov level sums, FFT sliding-DFT bin maintenance).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/forecast/ar.h"
#include "src/forecast/fft_forecaster.h"
#include "src/forecast/forecaster.h"
#include "src/forecast/markov.h"
#include "src/forecast/smoothing.h"

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
    // Mostly idle with occasional bursts — the serverless shape.
    if (rng.Uniform() < 0.15) {
      out[i] = 50.0 + 100.0 * rng.Uniform();
    }
  }
  return out;
}

std::vector<double> ConstantSeries(std::size_t n, double v) {
  return std::vector<double>(n, v);
}

// A long constant run followed by bursts: the batch SES/Holt grids tie
// exactly over the constant stretch and stay near-tied for the first epochs
// after the burst, which is where grid-selection flips would surface.
std::vector<double> ConstantThenBurst(std::size_t n, double v,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n, v);
  for (std::size_t i = 2 * n / 3; i < n; ++i) {
    if (rng.Uniform() < 0.3) {
      out[i] = v + 20.0 + 50.0 * rng.Uniform();
    }
  }
  return out;
}

// The pre-PR batch rolling loop: one forecaster clone driven through
// Forecast() on each windowed prefix (refit-interval caching included),
// with no incremental window state involved.
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
                                       std::size_t history_len, std::size_t warmup) {
  const std::unique_ptr<Forecaster> forecaster = prototype.Clone();
  return RollingForecast(*forecaster, series, history_len, warmup);
}

// Scale-relative comparison: |a - b| / max(1, |a|, |b|).
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

void CheckParity(const Forecaster& prototype, double bound) {
  const struct {
    const char* label;
    std::vector<double> series;
  } cases[] = {
      {"random", RandomSeries(400, 42)},
      {"bursty", BurstySeries(400, 7)},
      {"constant", ConstantSeries(300, 3.5)},
      {"all_zero", ConstantSeries(300, 0.0)},
      {"constant_then_burst", ConstantThenBurst(300, 5.0, 17)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    const auto batch = BatchRolling(prototype, c.series, 120, 10);
    const auto incremental = IncrementalRolling(prototype, c.series, 120, 10);
    ExpectSeriesNear(batch, incremental, bound);
  }
}

TEST(IncrementalParityTest, Ar) { CheckParity(ArForecaster(10, 5), 1e-9); }

TEST(IncrementalParityTest, ArRefitEveryCall) {
  CheckParity(ArForecaster(10, 1), 1e-9);
}

// SES and Holt have no incremental protocol: the stream serves them
// through the one batch path, so the bound is exact equality.
TEST(IncrementalParityTest, ExponentialSmoothing) {
  CheckParity(ExponentialSmoothingForecaster(), 0.0);
}

TEST(IncrementalParityTest, Holt) { CheckParity(HoltForecaster(), 0.0); }

TEST(IncrementalParityTest, Markov) {
  CheckParity(MarkovChainForecaster(4), 1e-9);
}

TEST(IncrementalParityTest, Fft) {
  // Sliding-DFT bin maintenance (DESIGN.md §9): <= 1e-9 scale-relative once
  // the window slides; the growth phase (below) stays bit-exact.
  CheckParity(FftForecaster(10, 5, 256), 1e-9);
}

TEST(IncrementalParityTest, FftRefitEveryCall) {
  // refit_interval=1 (the IceBreaker configuration) re-selects harmonics
  // from the maintained bins on every epoch.
  CheckParity(FftForecaster(10, 1, 128), 1e-9);
}

TEST(IncrementalParityTest, FftGrowthPhaseBitExact) {
  // Until the window first reaches capacity the incremental path refits
  // through the same TopHarmonics call on the same window — exact equality.
  const FftForecaster prototype(10, 5, 256);
  const auto series = RandomSeries(600, 13);
  const auto batch = BatchRolling(prototype, series, 120, 10);
  const auto incremental = IncrementalRolling(prototype, series, 120, 10);
  ASSERT_EQ(batch.size(), incremental.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    if (t <= 256) {
      EXPECT_EQ(batch[t], incremental[t]) << "t=" << t;
    } else {
      const double scale =
          std::max({1.0, std::fabs(batch[t]), std::fabs(incremental[t])});
      EXPECT_LE(std::fabs(batch[t] - incremental[t]) / scale, 1e-9) << "t=" << t;
    }
  }
}

// SETAR's ForecastNext is Forecast(window, 1)[0] on the stream's sorted
// view, refit counter included: exact equality.
TEST(IncrementalParityTest, Setar) { CheckParity(SetarForecaster(10, 2, 5), 0.0); }

TEST(IncrementalParityTest, SetarRefitEveryCall) {
  CheckParity(SetarForecaster(10, 2, 1), 0.0);
}

// Alternating 2e-200 and 1e-200: the extrema differ, but every squared
// deviation from the mean underflows, so Variance is 0 and the batch path
// falls back (to the mean for AR and SETAR, to the last sample for Markov).
// The stream must take the same gate, so both agree exactly.
TEST(IncrementalParityTest, TinyDistinctValuesTakeTheBatchVarianceGate) {
  std::vector<double> series(300);
  for (std::size_t t = 0; t < series.size(); ++t) {
    series[t] = t % 2 == 0 ? 2e-200 : 1e-200;
  }
  const ArForecaster ar(10, 5);
  const ArForecaster ar_every_call(10, 1);
  const MarkovChainForecaster markov(4);
  const SetarForecaster setar(10, 2, 5);
  for (const Forecaster* prototype : {static_cast<const Forecaster*>(&ar),
                                      static_cast<const Forecaster*>(&ar_every_call),
                                      static_cast<const Forecaster*>(&markov),
                                      static_cast<const Forecaster*>(&setar)}) {
    SCOPED_TRACE(prototype->name());
    const auto batch = BatchRolling(*prototype, series, 120, 10);
    const auto incremental = IncrementalRolling(*prototype, series, 120, 10);
    ASSERT_EQ(batch.size(), incremental.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      EXPECT_EQ(batch[t], incremental[t]) << "t=" << t;
    }
  }
}

TEST(IncrementalParityTest, MidSeriesWindowJump) {
  // A stream whose synced history jumps (here: restarting the series
  // mid-way) must re-seed and still match the batch path on the new stream.
  const auto series = RandomSeries(300, 99);
  ArForecaster forecaster(10, 5);
  const std::size_t window = 120;
  ForecastStream stream(window);
  stream.Bind(forecaster);
  // Feed a contiguous prefix...
  for (std::size_t t = 10; t < 150; ++t) {
    stream.Sync(std::span<const double>(series).subspan(0, t));
    stream.Forecast();
  }
  // ...then jump backwards to a shorter prefix: non-contiguous, so the
  // stream restores and reseeds. From there on it must agree with batch.
  ArForecaster batch_ref(10, 5);
  for (std::size_t t = 50; t < 300; ++t) {
    const std::span<const double> history = std::span<const double>(series).subspan(0, t);
    stream.Sync(history);
    const double inc = stream.Forecast();
    const std::span<const double> windowed =
        history.size() > window ? history.last(window) : history;
    const auto batch = batch_ref.Forecast(windowed, 1);
    const double ref = batch.empty() ? 0.0 : batch.front();
    const double scale = std::max({1.0, std::fabs(ref), std::fabs(inc)});
    EXPECT_LE(std::fabs(ref - inc) / scale, 1e-9) << "t=" << t;
  }
}

TEST(IncrementalParityTest, BaseForecastNextDefaultIsBitExact) {
  // A forecaster that implements only Forecast() is served by the base
  // ForecastNext(): Forecast(window, 1)[0], bit-identical to the batch loop.
  class PlainMean final : public Forecaster {
   public:
    std::string_view name() const override { return "plain_mean"; }
    std::vector<double> Forecast(std::span<const double> history,
                                 std::size_t horizon) override {
      double sum = 0.0;
      for (double v : history) {
        sum += v;
      }
      const double mu =
          history.empty() ? 0.0 : sum / static_cast<double>(history.size());
      return std::vector<double>(horizon, ClampPrediction(mu));
    }
    std::unique_ptr<Forecaster> Clone() const override {
      return std::make_unique<PlainMean>();
    }
  };
  const auto series = RandomSeries(300, 5);
  const PlainMean prototype;
  const auto batch = BatchRolling(prototype, series, 120, 10);
  const auto incremental = IncrementalRolling(prototype, series, 120, 10);
  ASSERT_EQ(batch.size(), incremental.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    EXPECT_EQ(batch[t], incremental[t]) << "t=" << t;
  }
}

TEST(IncrementalParityTest, LongSlideExercisesRebuilds) {
  // > kGramRebuildInterval slides at full window so the periodic Gram
  // rebuild and Markov recount paths both run.
  const auto series = RandomSeries(1200, 21);
  CheckParity(ArForecaster(10, 5), 1e-9);
  const auto batch = BatchRolling(ArForecaster(10, 5), series, 120, 10);
  const auto incremental = IncrementalRolling(ArForecaster(10, 5), series, 120, 10);
  ExpectSeriesNear(batch, incremental, 1e-9);
  const auto mbatch = BatchRolling(MarkovChainForecaster(4), series, 120, 10);
  const auto minc = IncrementalRolling(MarkovChainForecaster(4), series, 120, 10);
  ExpectSeriesNear(mbatch, minc, 1e-9);
}

}  // namespace
}  // namespace femux
