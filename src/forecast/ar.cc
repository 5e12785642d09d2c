#include "src/forecast/ar.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

#include "src/stats/descriptive.h"
#include "src/stats/linalg.h"

namespace femux {
namespace {

// Evaluates an AR coefficient vector (intercept, lag1..lagp) on the most
// recent `p` values of `recent` (ordered oldest-first).
double PredictAr(const std::vector<double>& coefficients,
                 std::span<const double> recent) {
  double value = coefficients[0];
  const std::size_t p = coefficients.size() - 1;
  for (std::size_t k = 1; k <= p; ++k) {
    value += coefficients[k] * recent[recent.size() - k];
  }
  return value;
}

// Regressors of the AR(p) design row that targets y[t]: the intercept, then
// y[t-1] .. y[t-p].
void FillDesignRow(std::span<const double> y, std::size_t t, std::size_t p,
                   double* x) {
  x[0] = 1.0;
  for (std::size_t k = 1; k <= p; ++k) {
    x[k] = y[t - k];
  }
}

// Adds one design row (regressors `x`, target `y`) to the upper triangle of
// the normal equations with FitOls's per-element operations: zero
// regressors are skipped, and FitOls's Axpy over a Gram row tail is
// bit-identical to this scalar loop. Rows added in the order FitOls visits
// them therefore give its Gram and moment vector bit for bit.
void AddDesignRow(const double* x, double y, std::size_t dim, double* gram,
                  double* moments) {
  for (std::size_t i = 0; i < dim; ++i) {
    const double xi = x[i];
    if (xi == 0.0) {
      continue;
    }
    moments[i] += xi * y;
    double* row = gram + i * dim;
    for (std::size_t j = i; j < dim; ++j) {
      row[j] += xi * x[j];
    }
  }
}

// Mirrors an upper-triangle Gram into `ws` and solves the normal equations
// by Cholesky into `x`, as FitOls does.
void SolveNormalEquationsInto(const double* gram, const double* moments,
                              std::size_t dim, CholeskyWorkspace& ws,
                              std::span<double> x) {
  ws.a.resize(dim * dim);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = i; j < dim; ++j) {
      ws.a[i * dim + j] = gram[i * dim + j];
      ws.a[j * dim + i] = gram[i * dim + j];
    }
  }
  CholeskySolveInto(ws, std::span<const double>(moments, dim), x);
}

std::vector<double> SolveNormalEquations(const double* gram, const double* moments,
                                         std::size_t dim) {
  CholeskyWorkspace ws;
  std::vector<double> x(dim);
  SolveNormalEquationsInto(gram, moments, dim, ws, x);
  return x;
}

// AR(p) coefficients (intercept, lag1..lagp) fitted by OLS over every design
// row of `y`: FitOls's coefficients on that design, bit for bit, without its
// residuals and standard errors. Empty when there are p + 2 or fewer rows.
std::vector<double> FitArCoefficients(std::span<const double> y, std::size_t p) {
  if (y.size() <= 2 * p + 2) {
    return {};
  }
  const std::size_t dim = p + 1;
  std::vector<double> gram(dim * dim, 0.0);
  std::vector<double> moments(dim, 0.0);
  std::vector<double> x(dim);
  for (std::size_t t = p; t < y.size(); ++t) {
    FillDesignRow(y, t, p, x.data());
    AddDesignRow(x.data(), y[t], dim, gram.data(), moments.data());
  }
  return SolveNormalEquations(gram.data(), moments.data(), dim);
}

// The cap on AR predictions: three times the history's peak, plus one.
double PredictionBound(std::span<const double> history) {
  double peak = 0.0;
  for (double v : history) {
    peak = std::max(peak, v);
  }
  return 3.0 * peak + 1.0;
}

// Recursively rolls a one-step prediction function forward `horizon` steps
// (`history` holds at least p samples). Predictions are bounded by a
// multiple of the history's peak: an estimated AR root slightly outside the
// unit circle otherwise explodes within a few recursive steps, which in the
// scaling domain means provisioning absurd capacity from a fit artifact.
template <typename Step>
std::vector<double> RollForward(std::span<const double> history, std::size_t horizon,
                                std::size_t p, const Step& step) {
  const double bound = PredictionBound(history);
  std::vector<double> out;
  out.reserve(horizon);
  if (horizon == 1) {
    out.push_back(std::min(bound, ClampPrediction(step(history.last(p)))));
    return out;
  }
  // Later steps regress on earlier predictions, so they roll over a copy.
  const std::span<const double> tail = history.last(p);
  std::vector<double> extended(tail.begin(), tail.end());
  for (std::size_t h = 0; h < horizon; ++h) {
    const double value = std::min(
        bound, ClampPrediction(step(std::span<const double>(extended).last(p))));
    out.push_back(value);
    extended.push_back(value);
  }
  return out;
}

std::vector<double> FallbackMean(std::span<const double> history, std::size_t horizon) {
  const double mu = ClampPrediction(Mean(history));
  return std::vector<double>(horizon, mu);
}

// What a fresh ArForecaster(p) returns: the mean for short or constant
// windows and when the fit has too few rows, else the rolled AR(p) fit.
std::vector<double> ForecastFreshAr(std::span<const double> history,
                                    std::size_t horizon, std::size_t p) {
  if (history.size() <= p + 3 || Variance(history) == 0.0) {
    return FallbackMean(history, horizon);
  }
  const std::vector<double> coefficients = FitArCoefficients(history, p);
  if (coefficients.empty()) {
    return FallbackMean(history, horizon);
  }
  return RollForward(history, horizon, p, [&](std::span<const double> recent) {
    return PredictAr(coefficients, recent);
  });
}

}  // namespace

ArForecaster::ArForecaster(std::size_t lags, std::size_t refit_interval)
    : lags_(std::max<std::size_t>(1, lags)),
      refit_interval_(std::max<std::size_t>(1, refit_interval)) {}

std::vector<double> ArForecaster::Forecast(std::span<const double> history,
                                           std::size_t horizon) {
  if (history.size() <= lags_ + 3) {
    return FallbackMean(history, horizon);
  }
  const bool stale =
      cached_coefficients_.empty() || calls_since_fit_ >= refit_interval_;
  if (stale) {
    if (Variance(history) == 0.0) {
      cached_coefficients_.clear();
      calls_since_fit_ = 0;
      return FallbackMean(history, horizon);
    }
    cached_coefficients_ = FitArCoefficients(history, lags_);
    calls_since_fit_ = 0;
  }
  ++calls_since_fit_;
  if (cached_coefficients_.empty()) {
    return FallbackMean(history, horizon);
  }
  return RollForward(history, horizon, lags_,
                     [this](std::span<const double> recent) {
                       return PredictAr(cached_coefficients_, recent);
                     });
}

std::unique_ptr<Forecaster> ArForecaster::Clone() const {
  return std::make_unique<ArForecaster>(lags_, refit_interval_);
}

namespace {
// Full Gram rebuild cadence (in slides). Bounds the drift from add/remove
// cancellation in the incremental updates to well under the 1e-9 parity
// budget while keeping the amortized rebuild cost negligible.
constexpr std::size_t kGramRebuildInterval = 24;
}  // namespace

void ArForecaster::BeginWindow(std::span<const double> window, std::size_t capacity) {
  (void)capacity;  // A slide shows as previous.size() == window.size().
  inc_coefficients_.clear();
  inc_calls_since_fit_ = 0;
  RebuildGram(window);
}

void ArForecaster::ObserveAppend(std::span<const double> previous,
                                 std::span<const double> window) {
  const std::size_t p = lags_;
  // On a slide the departing design row targets previous[p].
  if (window.size() == previous.size() && previous.size() > p) {
    UpdateGramRow(previous, p, -1.0);
  }
  if (window.size() > p) {
    // The arriving row targets the newest sample.
    UpdateGramRow(window, window.size() - 1, 1.0);
  }
  gram_rows_ = window.size() > p ? window.size() - p : 0;
  if (++slides_since_rebuild_ >= kGramRebuildInterval) {
    RebuildGram(window);
  }
}

double ArForecaster::ForecastNext(std::span<const double> window) {
  const std::size_t n = window.size();
  const auto fallback = [window] { return ClampPrediction(Mean(window)); };
  if (n <= lags_ + 3) {
    return fallback();
  }
  const bool stale =
      inc_coefficients_.empty() || inc_calls_since_fit_ >= refit_interval_;
  if (stale) {
    // Variance(window) == 0 gate: distinct extrema imply a strictly
    // positive variance for the magnitudes demand series take, and equal
    // ones run the batch computation itself.
    const auto [lo, hi] = std::minmax_element(window.begin(), window.end());
    if (*lo == *hi && Variance(window) == 0.0) {
      inc_coefficients_.clear();
      inc_calls_since_fit_ = 0;
      return fallback();
    }
    // FitArCoefficients's usability gate: too few rows, no model.
    const std::size_t dim = lags_ + 1;
    inc_coefficients_.clear();
    if (gram_rows_ > lags_ + 2) {
      inc_coefficients_.resize(dim);
      SolveNormalEquationsInto(gram_.data(), moments_.data(), dim, solve_,
                               inc_coefficients_);
    }
    inc_calls_since_fit_ = 0;
  }
  ++inc_calls_since_fit_;
  if (inc_coefficients_.empty()) {
    return fallback();
  }
  // One-step RollForward: bound by 3x the window peak and evaluate the AR
  // polynomial on the last p samples.
  double value = inc_coefficients_[0];
  for (std::size_t k = 1; k <= lags_; ++k) {
    value += inc_coefficients_[k] * window[n - k];
  }
  return std::min(PredictionBound(window), ClampPrediction(value));
}

void ArForecaster::RebuildGram(std::span<const double> window) {
  const std::size_t p = lags_;
  const std::size_t dim = p + 1;
  gram_.assign(dim * dim, 0.0);
  moments_.assign(dim, 0.0);
  gram_rows_ = window.size() > p ? window.size() - p : 0;
  for (std::size_t t = p; t < window.size(); ++t) {
    UpdateGramRow(window, t, 1.0);
  }
  slides_since_rebuild_ = 0;
}

void ArForecaster::UpdateGramRow(std::span<const double> window, std::size_t target,
                                 double sign) {
  const std::size_t p = lags_;
  const std::size_t dim = p + 1;
  const double y = window[target];
  // Row regressors: x0 = 1, xk = window[target - k].
  double x[64];  // dim <= 64 always (lags are ~10 in practice).
  const std::size_t d = std::min<std::size_t>(dim, 64);
  x[0] = 1.0;
  for (std::size_t k = 1; k < d; ++k) {
    x[k] = window[target - k];
  }
  for (std::size_t i = 0; i < d; ++i) {
    const double xi = sign * x[i];
    if (xi == 0.0) {
      continue;
    }
    moments_[i] += xi * y;
    for (std::size_t j = i; j < d; ++j) {
      gram_[i * dim + j] += xi * x[j];
    }
  }
}


SetarForecaster::SetarForecaster(std::size_t lags, std::size_t max_thresholds,
                                 std::size_t refit_interval)
    : lags_(std::max<std::size_t>(1, lags)),
      max_thresholds_(std::clamp<std::size_t>(max_thresholds, 1, 2)),
      refit_interval_(std::max<std::size_t>(1, refit_interval)) {}

std::vector<double> SetarForecaster::Forecast(std::span<const double> history,
                                              std::size_t horizon) {
  const std::size_t p = lags_;
  if (history.size() <= 4 * p || Variance(history) == 0.0) {
    // Too short to fit per-regime models; fall back to plain AR behavior.
    return ForecastFreshAr(history, horizon, p);
  }
  if (cached_regimes_.empty() || calls_since_fit_ >= refit_interval_) {
    calls_since_fit_ = 0;
    Refit(history);
  }
  ++calls_since_fit_;

  if (cached_regimes_.empty()) {
    return ForecastFreshAr(history, horizon, p);
  }
  return RollForward(history, horizon, p, [this](std::span<const double> recent) {
    const double pivot = recent.back();
    std::size_t regime = 0;
    while (regime < cached_thresholds_.size() && pivot > cached_thresholds_[regime]) {
      ++regime;
    }
    return PredictAr(cached_regimes_[regime], recent);
  });
}

namespace {

// A threshold candidate: one or two of the window's quartiles (0 = q25,
// 1 = q50, 2 = q75), ascending. The order of kSetarCandidates is the
// tie-break order of the SSE ranking.
struct SetarCandidate {
  std::size_t thresholds;
  std::array<std::size_t, 2> quartile;
};
constexpr std::array<SetarCandidate, 6> kSetarCandidates = {{
    {1, {0, 0}}, {1, {1, 0}}, {1, {2, 0}}, {2, {0, 2}}, {2, {0, 1}}, {2, {1, 2}},
}};

// Bit q of a pivot class is set when the pivot exceeds quartile q. A row's
// regime is the index of the first threshold its pivot does not exceed.
std::size_t RegimeOfClass(unsigned pivot_class, const SetarCandidate& candidate) {
  std::size_t regime = 0;
  while (regime < candidate.thresholds &&
         ((pivot_class >> candidate.quartile[regime]) & 1u) != 0) {
    ++regime;
  }
  return regime;
}

}  // namespace

void SetarForecaster::Refit(std::span<const double> history) {
  const std::size_t p = lags_;
  const std::size_t dim = p + 1;
  cached_regimes_.clear();
  cached_thresholds_.clear();

  // Candidate threshold grid from history quantiles.
  std::vector<double> sorted(history.begin(), history.end());
  std::sort(sorted.begin(), sorted.end());
  const std::array<double, 3> quartiles = {QuantileSorted(sorted, 0.25),
                                           QuantileSorted(sorted, 0.50),
                                           QuantileSorted(sorted, 0.75)};
  std::size_t candidate_count = 3;
  if (max_thresholds_ >= 2 && quartiles[0] < quartiles[2]) {
    candidate_count =
        quartiles[0] < quartiles[1] && quartiles[1] < quartiles[2] ? 6 : 4;
  }

  // Regime of row t-p is chosen by the previous observation y[t-1], and
  // only through which quartiles it exceeds: its pivot class.
  const std::size_t rows = history.size() - p;
  std::vector<std::uint8_t> row_class(rows);
  std::array<std::size_t, 8> class_rows{};
  for (std::size_t t = p; t < history.size(); ++t) {
    const double pivot = history[t - 1];
    const unsigned pivot_class = (pivot > quartiles[0] ? 1u : 0u) |
                                 (pivot > quartiles[1] ? 2u : 0u) |
                                 (pivot > quartiles[2] ? 4u : 0u);
    row_class[t - p] = static_cast<std::uint8_t>(pivot_class);
    ++class_rows[pivot_class];
  }

  // Count-first screen: a regime of p + 2 or fewer rows has no AR(p) fit, so
  // its candidate is dropped before any Gram is built. A surviving
  // candidate's regime is a set of occupied pivot classes; equal sets have
  // equal rows and so equal fits, and each is fitted once. With ordered
  // quartiles only four classes occur, and the sets are the at most nine
  // pivot intervals cut by q25, q50 and q75.
  std::vector<unsigned> row_sets;  // Bit c: pivot class c.
  std::array<std::array<std::size_t, 3>, kSetarCandidates.size()> regime_fit{};
  std::array<bool, kSetarCandidates.size()> feasible{};
  for (std::size_t k = 0; k < candidate_count; ++k) {
    const SetarCandidate& candidate = kSetarCandidates[k];
    std::array<unsigned, 3> regime_set{};
    std::array<std::size_t, 3> regime_rows{};
    for (unsigned c = 0; c < class_rows.size(); ++c) {
      if (class_rows[c] > 0) {
        const std::size_t regime = RegimeOfClass(c, candidate);
        regime_set[regime] |= 1u << c;
        regime_rows[regime] += class_rows[c];
      }
    }
    feasible[k] = std::all_of(regime_rows.begin(),
                              regime_rows.begin() + candidate.thresholds + 1,
                              [p](std::size_t n) { return n > p + 2; });
    if (!feasible[k]) {
      continue;
    }
    for (std::size_t g = 0; g <= candidate.thresholds; ++g) {
      const auto found = std::find(row_sets.begin(), row_sets.end(), regime_set[g]);
      regime_fit[k][g] = static_cast<std::size_t>(found - row_sets.begin());
      if (found == row_sets.end()) {
        row_sets.push_back(regime_set[g]);
      }
    }
  }
  if (row_sets.empty()) {
    return;  // No candidate can fit every regime.
  }

  // One Gram and moment vector per row set, rows added in row order: each
  // equals what FitOls builds from that regime's masked design.
  const std::size_t gram_size = dim * dim;
  std::vector<double> grams(row_sets.size() * gram_size, 0.0);
  std::vector<double> moments(row_sets.size() * dim, 0.0);
  std::vector<double> x(dim);
  for (std::size_t t = p; t < history.size(); ++t) {
    const unsigned pivot_class = row_class[t - p];
    FillDesignRow(history, t, p, x.data());
    for (std::size_t s = 0; s < row_sets.size(); ++s) {
      if (((row_sets[s] >> pivot_class) & 1u) != 0) {
        AddDesignRow(x.data(), history[t], dim, &grams[s * gram_size],
                     &moments[s * dim]);
      }
    }
  }
  std::vector<std::vector<double>> fits(row_sets.size());
  for (std::size_t s = 0; s < row_sets.size(); ++s) {
    fits[s] = SolveNormalEquations(&grams[s * gram_size], &moments[s * dim], dim);
  }

  // Rank the surviving candidates by in-sample SSE; the first minimum wins.
  double best_sse = std::numeric_limits<double>::infinity();
  std::size_t best = kSetarCandidates.size();
  for (std::size_t k = 0; k < candidate_count; ++k) {
    if (!feasible[k]) {
      continue;
    }
    double sse = 0.0;
    for (std::size_t t = p; t < history.size(); ++t) {
      const std::vector<double>& coefficients =
          fits[regime_fit[k][RegimeOfClass(row_class[t - p], kSetarCandidates[k])]];
      const double pred = PredictAr(coefficients, history.subspan(0, t).last(p));
      const double err = history[t] - pred;
      sse += err * err;
    }
    if (sse < best_sse) {
      best_sse = sse;
      best = k;
    }
  }
  if (best == kSetarCandidates.size()) {
    return;  // Every SSE was NaN or infinite.
  }
  const SetarCandidate& winner = kSetarCandidates[best];
  for (std::size_t g = 0; g <= winner.thresholds; ++g) {
    if (g < winner.thresholds) {
      cached_thresholds_.push_back(quartiles[winner.quartile[g]]);
    }
    cached_regimes_.push_back(fits[regime_fit[best][g]]);
  }
}

std::unique_ptr<Forecaster> SetarForecaster::Clone() const {
  return std::make_unique<SetarForecaster>(lags_, max_thresholds_, refit_interval_);
}

}  // namespace femux
