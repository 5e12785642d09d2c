// Bit-identity oracle for the batch AR/SETAR refits (DESIGN.md §6).
//
// SetarForecaster refits from one shared Gram per regime row set after a
// count-first feasibility screen, and ArForecaster's batch fit builds its
// normal equations directly; neither goes through FitOls any more. Both must
// still return exactly what the masked-design implementation below returned:
// per regime, a masked AR(p) design handed to FitOls, tried over the quartile
// threshold candidates and ranked by in-sample SSE, with a fresh AR(p) fit as
// the fallback. That implementation is kept here verbatim as the oracle, and
// every forecast is compared bit for bit (std::bit_cast), through
// RollingForecast and through multi-step Forecast(window, 3) calls, for refit
// intervals {1, 5, 20} x max_thresholds {1, 2}.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/forecast/ar.h"
#include "src/forecast/forecaster.h"
#include "src/sim/fleet.h"
#include "src/stats/descriptive.h"
#include "src/stats/ols.h"
#include "src/trace/csv_io.h"

namespace femux {
namespace {

// ---- The oracle: the masked-design AR/SETAR batch path, verbatim ----

double OraclePredictAr(const std::vector<double>& coefficients,
                       std::span<const double> recent) {
  double value = coefficients[0];
  const std::size_t p = coefficients.size() - 1;
  for (std::size_t k = 1; k <= p; ++k) {
    value += coefficients[k] * recent[recent.size() - k];
  }
  return value;
}

std::vector<double> OracleFitAr(std::span<const double> y, std::size_t p,
                                const std::vector<bool>* use_row) {
  if (y.size() <= p + 2) {
    return {};
  }
  std::size_t rows = 0;
  for (std::size_t t = p; t < y.size(); ++t) {
    if (use_row == nullptr || (*use_row)[t - p]) {
      ++rows;
    }
  }
  if (rows <= p + 2) {
    return {};
  }
  Matrix x(rows, p + 1);
  std::vector<double> target(rows);
  std::size_t r = 0;
  for (std::size_t t = p; t < y.size(); ++t) {
    if (use_row != nullptr && !(*use_row)[t - p]) {
      continue;
    }
    target[r] = y[t];
    x(r, 0) = 1.0;
    for (std::size_t k = 1; k <= p; ++k) {
      x(r, k) = y[t - k];
    }
    ++r;
  }
  const OlsResult fit = FitOls(x, target);
  if (!fit.ok) {
    return {};
  }
  return fit.coefficients;
}

std::vector<double> OracleRollForward(
    std::span<const double> history, std::size_t horizon, std::size_t p,
    const std::function<double(std::span<const double>)>& step) {
  double peak = 0.0;
  for (double v : history) {
    peak = std::max(peak, v);
  }
  const double bound = 3.0 * peak + 1.0;
  std::vector<double> extended(history.begin(), history.end());
  std::vector<double> out;
  out.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    const double value = std::min(
        bound, ClampPrediction(step(std::span<const double>(extended).last(p))));
    out.push_back(value);
    extended.push_back(value);
  }
  return out;
}

std::vector<double> OracleFallbackMean(std::span<const double> history,
                                       std::size_t horizon) {
  const double mu = ClampPrediction(Mean(history));
  return std::vector<double>(horizon, mu);
}

class OracleAr final : public Forecaster {
 public:
  explicit OracleAr(std::size_t lags = 10, std::size_t refit_interval = 1)
      : lags_(std::max<std::size_t>(1, lags)),
        refit_interval_(std::max<std::size_t>(1, refit_interval)) {}

  std::string_view name() const override { return "ar"; }
  std::unique_ptr<Forecaster> Clone() const override {
    return std::make_unique<OracleAr>(lags_, refit_interval_);
  }

  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override {
    if (history.size() <= lags_ + 3) {
      return OracleFallbackMean(history, horizon);
    }
    const bool stale =
        cached_coefficients_.empty() || calls_since_fit_ >= refit_interval_;
    if (stale) {
      if (Variance(history) == 0.0) {
        cached_coefficients_.clear();
        calls_since_fit_ = 0;
        return OracleFallbackMean(history, horizon);
      }
      cached_coefficients_ = OracleFitAr(history, lags_, nullptr);
      calls_since_fit_ = 0;
    }
    ++calls_since_fit_;
    if (cached_coefficients_.empty()) {
      return OracleFallbackMean(history, horizon);
    }
    return OracleRollForward(history, horizon, lags_,
                             [this](std::span<const double> recent) {
                               return OraclePredictAr(cached_coefficients_, recent);
                             });
  }

 private:
  std::size_t lags_;
  std::size_t refit_interval_;
  std::size_t calls_since_fit_ = 0;
  std::vector<double> cached_coefficients_;
};

// Which refit outcomes a run exercised, so each input below can assert it
// reaches the path it was built for.
struct RefitCounts {
  std::size_t feasible = 0;        // Some candidate fitted every regime.
  std::size_t infeasible = 0;      // No candidate did: AR fallback.
  std::size_t two_thresholds = 0;  // Winner had three regimes.
};

class OracleSetar final : public Forecaster {
 public:
  OracleSetar(std::size_t lags, std::size_t max_thresholds,
              std::size_t refit_interval, RefitCounts* counts)
      : lags_(std::max<std::size_t>(1, lags)),
        max_thresholds_(std::clamp<std::size_t>(max_thresholds, 1, 2)),
        refit_interval_(std::max<std::size_t>(1, refit_interval)),
        counts_(counts) {}

  std::string_view name() const override { return "setar"; }
  std::unique_ptr<Forecaster> Clone() const override {
    return std::make_unique<OracleSetar>(lags_, max_thresholds_, refit_interval_,
                                         counts_);
  }

  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override {
    const std::size_t p = lags_;
    if (history.size() <= 4 * p || Variance(history) == 0.0) {
      OracleAr ar(p);
      return ar.Forecast(history, horizon);
    }

    const bool stale = cached_regimes_.empty() || calls_since_fit_ >= refit_interval_;
    if (stale) {
      calls_since_fit_ = 0;
      cached_regimes_.clear();
      cached_thresholds_.clear();

      std::vector<double> sorted(history.begin(), history.end());
      std::sort(sorted.begin(), sorted.end());
      const double q25 = QuantileSorted(sorted, 0.25);
      const double q50 = QuantileSorted(sorted, 0.50);
      const double q75 = QuantileSorted(sorted, 0.75);

      std::vector<std::vector<double>> candidates = {{q25}, {q50}, {q75}};
      if (max_thresholds_ >= 2 && q25 < q75) {
        candidates.push_back({q25, q75});
        if (q25 < q50 && q50 < q75) {
          candidates.push_back({q25, q50});
          candidates.push_back({q50, q75});
        }
      }

      const std::size_t rows = history.size() - p;
      double best_sse = std::numeric_limits<double>::infinity();
      for (const auto& thresholds : candidates) {
        const std::size_t regime_count = thresholds.size() + 1;
        std::vector<std::vector<bool>> masks(regime_count,
                                             std::vector<bool>(rows, false));
        for (std::size_t t = p; t < history.size(); ++t) {
          const double pivot = history[t - 1];
          std::size_t regime = 0;
          while (regime < thresholds.size() && pivot > thresholds[regime]) {
            ++regime;
          }
          masks[regime][t - p] = true;
        }
        std::vector<std::vector<double>> regimes(regime_count);
        bool all_ok = true;
        for (std::size_t g = 0; g < regime_count; ++g) {
          regimes[g] = OracleFitAr(history, p, &masks[g]);
          if (regimes[g].empty()) {
            all_ok = false;
            break;
          }
        }
        if (!all_ok) {
          continue;
        }
        double sse = 0.0;
        for (std::size_t t = p; t < history.size(); ++t) {
          const double pivot = history[t - 1];
          std::size_t regime = 0;
          while (regime < thresholds.size() && pivot > thresholds[regime]) {
            ++regime;
          }
          const double pred =
              OraclePredictAr(regimes[regime], history.subspan(0, t).last(p));
          const double err = history[t] - pred;
          sse += err * err;
        }
        if (sse < best_sse) {
          best_sse = sse;
          cached_thresholds_ = thresholds;
          cached_regimes_ = std::move(regimes);
        }
      }
      if (counts_ != nullptr) {
        ++(cached_regimes_.empty() ? counts_->infeasible : counts_->feasible);
        counts_->two_thresholds += cached_thresholds_.size() == 2 ? 1 : 0;
      }
    }
    ++calls_since_fit_;

    if (cached_regimes_.empty()) {
      OracleAr ar(p);
      return ar.Forecast(history, horizon);
    }
    return OracleRollForward(history, horizon, p, [this](std::span<const double> recent) {
      const double pivot = recent.back();
      std::size_t regime = 0;
      while (regime < cached_thresholds_.size() && pivot > cached_thresholds_[regime]) {
        ++regime;
      }
      return OraclePredictAr(cached_regimes_[regime], recent);
    });
  }

 private:
  std::size_t lags_;
  std::size_t max_thresholds_;
  std::size_t refit_interval_;
  std::size_t calls_since_fit_ = 0;
  std::vector<double> cached_thresholds_;
  std::vector<std::vector<double>> cached_regimes_;
  RefitCounts* counts_;
};

// ---- Inputs ----

class XorShift {
 public:
  explicit XorShift(std::uint64_t seed) : state_(seed ? seed : 1) {}
  double Uniform() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<double>(state_ % 1000000) / 1000000.0;
  }

 private:
  std::uint64_t state_;
};

// Two AR(1) regimes switched by the previous value, the process SETAR models.
std::vector<double> RegimeSwitchingSeries(std::size_t n, std::uint64_t seed) {
  XorShift rng(seed);
  std::vector<double> out(n);
  double y = 5.0;
  for (double& v : out) {
    const double noise = 4.0 * (rng.Uniform() - 0.5);
    y = y <= 10.0 ? 3.0 + 0.9 * y + noise : 30.0 - 0.8 * y + noise;
    y = std::max(0.0, y);
    v = y;
  }
  return out;
}

// Idle with rare bursts: the quartiles are all zero and the above-threshold
// regime never has the rows an AR(10) fit needs, so every refit falls back.
std::vector<double> ZeroInflatedSeries(std::size_t n, std::uint64_t seed) {
  XorShift rng(seed);
  std::vector<double> out(n, 0.0);
  for (double& v : out) {
    if (rng.Uniform() < 0.04) {
      v = 1.0 + 20.0 * rng.Uniform();
    }
  }
  return out;
}

// Busy, then constant, then idle, then busy again: windows that are
// non-constant, constant at a non-zero level, all zero, and mixed.
std::vector<double> ConstantAndZeroSeries(std::uint64_t seed) {
  XorShift rng(seed);
  std::vector<double> out;
  for (int i = 0; i < 200; ++i) {
    out.push_back(10.0 + 10.0 * rng.Uniform());
  }
  out.insert(out.end(), 200, 7.0);
  out.insert(out.end(), 200, 0.0);
  for (int i = 0; i < 200; ++i) {
    out.push_back(20.0 * rng.Uniform());
  }
  return out;
}

std::vector<std::vector<double>> SnapshotDemand() {
  const std::string dir = FEMUX_TEST_DATA_DIR;
  const Dataset dataset = ReadDatasetCsvFiles(dir + "/fleet_golden_configs.csv",
                                              dir + "/fleet_golden_counts.csv");
  std::vector<std::vector<double>> out;
  for (const AppTrace& app : dataset.apps) {
    out.push_back(DemandSeries(app, 60.0));
  }
  return out;
}

// ---- Comparison ----

void ExpectBitIdentical(const std::vector<double>& expected,
                        const std::vector<double>& actual, const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
              std::bit_cast<std::uint64_t>(actual[i]))
        << what << " differs at " << i << ": " << expected[i] << " vs " << actual[i];
  }
}

// The batch rolling loop RollingForecast runs for forecasters without the
// incremental protocol; ArForecaster has one, so its batch path is driven
// here directly.
std::vector<double> BatchRolling(Forecaster& forecaster, std::span<const double> series) {
  std::vector<double> out(series.size(), 0.0);
  for (std::size_t t = 10; t < series.size(); ++t) {
    const auto prefix = series.subspan(0, t);
    out[t] = forecaster
                 .Forecast(prefix.size() > kDefaultHistoryMinutes
                               ? prefix.last(kDefaultHistoryMinutes)
                               : prefix,
                           1)
                 .front();
  }
  return out;
}

// Three-step forecasts on every `stride`-th window (and on every prefix
// shorter than 4p + 5), concatenated, one forecaster instance per run so
// the refit cadence carries across calls.
std::vector<double> MultiStep(Forecaster& forecaster, std::span<const double> series,
                              std::size_t stride) {
  std::vector<double> out;
  for (std::size_t t = 0; t <= series.size(); t += t < 45 ? 1 : stride) {
    const auto prefix = series.subspan(0, t);
    const auto window = prefix.size() > kDefaultHistoryMinutes
                            ? prefix.last(kDefaultHistoryMinutes)
                            : prefix;
    const std::vector<double> step = forecaster.Forecast(window, 3);
    out.insert(out.end(), step.begin(), step.end());
  }
  return out;
}

constexpr std::size_t kRefitIntervals[] = {1, 5, 20};
constexpr std::size_t kMaxThresholds[] = {1, 2};

// Runs every configuration over `series` and returns the oracle's refit
// counts summed over them.
RefitCounts CheckSeries(const std::vector<double>& series, const std::string& label,
                        std::size_t stride) {
  RefitCounts counts;
  for (const std::size_t refit : kRefitIntervals) {
    for (const std::size_t thresholds : kMaxThresholds) {
      const std::string what = label + " refit=" + std::to_string(refit) +
                               " thresholds=" + std::to_string(thresholds);
      OracleSetar oracle(10, thresholds, refit, &counts);
      SetarForecaster setar(10, thresholds, refit);
      ExpectBitIdentical(RollingForecast(oracle, series), RollingForecast(setar, series),
                         what + " rolling");
      OracleSetar oracle_multi(10, thresholds, refit, nullptr);
      SetarForecaster setar_multi(10, thresholds, refit);
      ExpectBitIdentical(MultiStep(oracle_multi, series, stride),
                         MultiStep(setar_multi, series, stride), what + " horizon 3");
    }
    OracleAr oracle_ar(10, refit);
    ArForecaster ar(10, refit);
    ExpectBitIdentical(BatchRolling(oracle_ar, series), BatchRolling(ar, series),
                       label + " ar refit=" + std::to_string(refit));
  }
  return counts;
}

TEST(SetarOracleTest, SnapshotAppsMatchBitForBit) {
  const std::vector<std::vector<double>> apps = SnapshotDemand();
  ASSERT_FALSE(apps.empty());
  RefitCounts total;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const RefitCounts counts = CheckSeries(apps[a], "app " + std::to_string(a), 13);
    total.feasible += counts.feasible;
    total.infeasible += counts.infeasible;
  }
  // The snapshot exercises both refit outcomes.
  EXPECT_GT(total.feasible, 0u);
  EXPECT_GT(total.infeasible, 0u);
}

TEST(SetarOracleTest, RegimeSwitchingSeriesMatchesBitForBit) {
  const RefitCounts counts =
      CheckSeries(RegimeSwitchingSeries(1500, 17), "regime switching", 5);
  EXPECT_GT(counts.feasible, 0u);
  EXPECT_GT(counts.two_thresholds, 0u);
}

TEST(SetarOracleTest, ZeroInflatedSeriesWithNoFeasibleCandidateMatches) {
  const RefitCounts counts = CheckSeries(ZeroInflatedSeries(1500, 29), "zero inflated", 5);
  EXPECT_EQ(counts.feasible, 0u);
  EXPECT_GT(counts.infeasible, 0u);
}

TEST(SetarOracleTest, ConstantAndAllZeroWindowsMatch) {
  CheckSeries(ConstantAndZeroSeries(31), "constant and zero", 3);
  CheckSeries(std::vector<double>(300, 0.0), "all zero", 3);
  CheckSeries(std::vector<double>(300, 4.0), "constant", 3);
}

TEST(SetarOracleTest, ShortPrefixesMatch) {
  // Every prefix shorter than 4p (the AR fallback), and just past it.
  const std::vector<double> series = RegimeSwitchingSeries(60, 43);
  for (const std::size_t thresholds : kMaxThresholds) {
    for (std::size_t n = 0; n <= series.size(); ++n) {
      const std::span<const double> prefix(series.data(), n);
      OracleSetar oracle(10, thresholds, 1, nullptr);
      SetarForecaster setar(10, thresholds, 1);
      ExpectBitIdentical(oracle.Forecast(prefix, 3), setar.Forecast(prefix, 3),
                         "prefix " + std::to_string(n));
    }
  }
}

}  // namespace
}  // namespace femux
