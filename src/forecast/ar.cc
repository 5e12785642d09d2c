#include "src/forecast/ar.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

#include "src/stats/descriptive.h"
#include "src/stats/linalg.h"
#include "src/stats/simd.h"

namespace femux {
namespace {

// Evaluates an AR coefficient vector (intercept, lag1..lagp) on the most
// recent `p` values of `recent` (ordered oldest-first).
double PredictAr(std::span<const double> coefficients,
                 std::span<const double> recent) {
  double value = coefficients[0];
  const std::size_t p = coefficients.size() - 1;
  for (std::size_t k = 1; k <= p; ++k) {
    value += coefficients[k] * recent[recent.size() - k];
  }
  return value;
}

// Zeroes `gram` and `moments` and accumulates the AR(p) design rows of `y`
// that the row mask selects (simd::GramAccumulate): the normal equations
// FitOls builds from that masked design, bit for bit.
void BuildArGram(std::span<const double> y, std::size_t p,
                 const std::uint8_t* row_class, unsigned class_mask, double* gram,
                 double* moments) {
  const std::size_t dim = p + 1;
  std::fill(gram, gram + dim * dim, 0.0);
  std::fill(moments, moments + dim, 0.0);
  simd::GramAccumulate(y.data(), y.size(), p, row_class, class_mask, gram, moments);
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

// The most row sets one SETAR refit fits: one per regime of every
// threshold candidate (2 + 2 + 2 + 3 + 3 + 3).
constexpr std::size_t kMaxRowSets = 15;

// Buffers the batch fits and SETAR's refit reuse. They live per thread, not
// per instance, so a daemon's tenants share them; they grow with the
// largest window a thread has fitted and then stop allocating.
struct FitScratch {
  std::vector<double> gram;
  std::vector<double> moments;
  std::vector<double> coefficients;
  std::vector<double> sorted;       // Forecast()'s sorted history.
  std::vector<double> reversed;     // The window, newest first.
  std::vector<double> fits;         // kMaxRowSets x (p + 1).
  std::vector<double> predictions;  // kMaxRowSets x rows.
  std::vector<std::uint8_t> row_class;
  CholeskyWorkspace solve;
};

FitScratch& Scratch() {
  thread_local FitScratch scratch;
  return scratch;
}

// AR(p) coefficients (intercept, lag1..lagp) fitted by OLS over every design
// row of `y` into `out` (p + 1 values): FitOls's coefficients on that
// design, bit for bit, without its residuals and standard errors. False,
// with `out` untouched, when there are p + 2 or fewer rows.
bool FitArInto(std::span<const double> y, std::size_t p, std::span<double> out) {
  if (y.size() <= 2 * p + 2) {
    return false;
  }
  const std::size_t dim = p + 1;
  FitScratch& scratch = Scratch();
  scratch.gram.resize(dim * dim);
  scratch.moments.resize(dim);
  BuildArGram(y, p, nullptr, 0, scratch.gram.data(), scratch.moments.data());
  SolveNormalEquationsInto(scratch.gram.data(), scratch.moments.data(), dim,
                           scratch.solve, out);
  return true;
}

// FitArInto as a vector; empty when there are too few rows.
std::vector<double> FitArCoefficients(std::span<const double> y, std::size_t p) {
  std::vector<double> coefficients(p + 1);
  if (!FitArInto(y, p, coefficients)) {
    return {};
  }
  return coefficients;
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

// ForecastFreshAr(window, 1, p)[0] without allocating, given the window's
// extrema and prediction bound.
double FreshArNext(std::span<const double> window, std::size_t p, double lo,
                   double hi, double bound) {
  if (window.size() <= p + 3 || VarianceIsZero(window, lo, hi)) {
    return ClampPrediction(Mean(window));
  }
  std::vector<double>& coefficients = Scratch().coefficients;
  coefficients.resize(p + 1);
  if (!FitArInto(window, p, coefficients)) {
    return ClampPrediction(Mean(window));
  }
  return std::min(bound, ClampPrediction(PredictAr(coefficients, window)));
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
    const auto [lo, hi] = std::minmax_element(window.begin(), window.end());
    if (VarianceIsZero(window, *lo, *hi)) {
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
  return std::min(PredictionBound(window),
                  ClampPrediction(PredictAr(inc_coefficients_, window)));
}

void ArForecaster::RebuildGram(std::span<const double> window) {
  const std::size_t p = lags_;
  const std::size_t dim = p + 1;
  gram_.resize(dim * dim);
  moments_.resize(dim);
  BuildArGram(window, p, nullptr, 0, gram_.data(), moments_.data());
  gram_rows_ = window.size() > p ? window.size() - p : 0;
  slides_since_rebuild_ = 0;
}

void ArForecaster::UpdateGramRow(std::span<const double> window, std::size_t target,
                                 double sign) {
  const std::size_t dim = lags_ + 1;
  const double y = window[target];
  // Row regressors: x0 = 1, xk = window[target - k].
  const auto x = [window, target](std::size_t k) {
    return k == 0 ? 1.0 : window[target - k];
  };
  for (std::size_t i = 0; i < dim; ++i) {
    const double xi = sign * x(i);
    if (xi == 0.0) {
      continue;
    }
    moments_[i] += xi * y;
    for (std::size_t j = i; j < dim; ++j) {
      gram_[i * dim + j] += xi * x(j);
    }
  }
}


SetarForecaster::SetarForecaster(std::size_t lags, std::size_t max_thresholds,
                                 std::size_t refit_interval)
    : lags_(std::max<std::size_t>(1, lags)),
      max_thresholds_(std::clamp<std::size_t>(max_thresholds, 1, 2)),
      refit_interval_(std::max<std::size_t>(1, refit_interval)),
      coefficients_(3 * (lags_ + 1)) {}

double SetarForecaster::PredictRegime(std::span<const double> recent) const {
  const double pivot = recent.back();
  std::size_t regime = 0;
  while (regime + 1 < regimes_ && pivot > thresholds_[regime]) {
    ++regime;
  }
  const std::size_t dim = lags_ + 1;
  return PredictAr(std::span<const double>(coefficients_).subspan(regime * dim, dim),
                   recent);
}

std::vector<double> SetarForecaster::Forecast(std::span<const double> history,
                                              std::size_t horizon) {
  const std::size_t p = lags_;
  if (history.size() <= 4 * p || Variance(history) == 0.0) {
    // Too short to fit per-regime models; fall back to plain AR behavior.
    return ForecastFreshAr(history, horizon, p);
  }
  if (regimes_ == 0 || calls_since_fit_ >= refit_interval_) {
    calls_since_fit_ = 0;
    std::vector<double>& sorted = Scratch().sorted;
    sorted.assign(history.begin(), history.end());
    std::sort(sorted.begin(), sorted.end());
    Refit(history, sorted);
  }
  ++calls_since_fit_;

  if (regimes_ == 0) {
    return ForecastFreshAr(history, horizon, p);
  }
  return RollForward(history, horizon, p, [this](std::span<const double> recent) {
    return PredictRegime(recent);
  });
}

void SetarForecaster::BeginWindow(std::span<const double> window,
                                  std::size_t capacity) {
  sorted_.Assign(window, capacity);
}

void SetarForecaster::ObserveAppend(std::span<const double> previous,
                                    std::span<const double> window) {
  sorted_.Slide(previous, window);
}

double SetarForecaster::ForecastNext(std::span<const double> window) {
  // Forecast(window, 1)[0], reading the extrema and the peak of
  // PredictionBound from the sorted view.
  const std::size_t p = lags_;
  const std::span<const double> sorted = sorted_.values();
  const double lo = sorted.empty() ? 0.0 : sorted.front();
  const double hi = sorted.empty() ? 0.0 : sorted.back();
  const double bound = 3.0 * std::max(0.0, hi) + 1.0;
  if (window.size() <= 4 * p || VarianceIsZero(window, lo, hi)) {
    return FreshArNext(window, p, lo, hi, bound);
  }
  if (regimes_ == 0 || calls_since_fit_ >= refit_interval_) {
    calls_since_fit_ = 0;
    Refit(window, sorted);
  }
  ++calls_since_fit_;
  if (regimes_ == 0) {
    return FreshArNext(window, p, lo, hi, bound);
  }
  return std::min(bound, ClampPrediction(PredictRegime(window)));
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

void SetarForecaster::Refit(std::span<const double> history,
                            std::span<const double> sorted) {
  const std::size_t p = lags_;
  const std::size_t dim = p + 1;
  const std::size_t n = history.size();
  regimes_ = 0;

  // Candidate threshold grid from history quantiles.
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
  FitScratch& scratch = Scratch();
  const std::size_t rows = n - p;
  std::vector<std::uint8_t>& row_class = scratch.row_class;
  row_class.resize(rows);
  std::array<std::size_t, 8> class_rows{};
  for (std::size_t t = p; t < n; ++t) {
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
  // pivot intervals cut by q25, q50 and q75. fit_of_class[k][c] is the row
  // set that fits pivot class c under candidate k.
  std::array<unsigned, kMaxRowSets> row_sets{};  // Bit c: pivot class c.
  std::size_t set_count = 0;
  std::array<std::array<std::uint8_t, 8>, kSetarCandidates.size()> fit_of_class{};
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
                              [p](std::size_t count) { return count > p + 2; });
    if (!feasible[k]) {
      continue;
    }
    for (std::size_t g = 0; g <= candidate.thresholds; ++g) {
      const auto sets_end = row_sets.begin() + set_count;
      const auto found = std::find(row_sets.begin(), sets_end, regime_set[g]);
      regime_fit[k][g] = static_cast<std::size_t>(found - row_sets.begin());
      if (found == sets_end) {
        row_sets[set_count++] = regime_set[g];
      }
    }
    for (unsigned c = 0; c < class_rows.size(); ++c) {
      fit_of_class[k][c] =
          static_cast<std::uint8_t>(regime_fit[k][RegimeOfClass(c, candidate)]);
    }
  }
  if (set_count == 0) {
    return;  // No candidate can fit every regime.
  }

  // One Gram per row set, its rows added in row order, so each equals what
  // FitOls builds from that regime's masked design, and one solve.
  scratch.gram.resize(dim * dim);
  scratch.moments.resize(dim);
  scratch.fits.resize(kMaxRowSets * dim);
  for (std::size_t s = 0; s < set_count; ++s) {
    BuildArGram(history, p, row_class.data(), row_sets[s], scratch.gram.data(),
                scratch.moments.data());
    SolveNormalEquationsInto(scratch.gram.data(), scratch.moments.data(), dim,
                             scratch.solve,
                             std::span<double>(scratch.fits).subspan(s * dim, dim));
  }

  // Every row set's one-step prediction for every row. In the reversed
  // window rev[m] = y[n-1-m], the lags y[t-1] .. y[t-p] of row t are
  // rev[r+1] .. rev[r+p] with r = n-1-t, so GemvColMajor over rev + 1 with
  // stride 1 runs one row per lane, adding the lags in ascending order
  // onto the intercept: PredictAr's operations, bit for bit.
  std::vector<double>& reversed = scratch.reversed;
  reversed.resize(n);
  std::reverse_copy(history.begin(), history.end(), reversed.begin());
  std::vector<double>& predictions = scratch.predictions;
  predictions.resize(kMaxRowSets * rows);
  for (std::size_t s = 0; s < set_count; ++s) {
    double* out = predictions.data() + s * rows;
    std::fill(out, out + rows, scratch.fits[s * dim]);
    simd::GemvColMajor(reversed.data() + 1, rows, p, 1,
                       scratch.fits.data() + s * dim + 1, out);
  }

  // Rank the surviving candidates by in-sample SSE, each summed in row
  // order; the first minimum wins.
  std::array<double, kSetarCandidates.size()> sse{};
  for (std::size_t t = p; t < n; ++t) {
    const std::uint8_t pivot_class = row_class[t - p];
    const std::size_t r = n - 1 - t;
    for (std::size_t k = 0; k < candidate_count; ++k) {
      if (feasible[k]) {
        const double err =
            history[t] - predictions[fit_of_class[k][pivot_class] * rows + r];
        sse[k] += err * err;
      }
    }
  }
  double best_sse = std::numeric_limits<double>::infinity();
  std::size_t best = kSetarCandidates.size();
  for (std::size_t k = 0; k < candidate_count; ++k) {
    if (feasible[k] && sse[k] < best_sse) {
      best_sse = sse[k];
      best = k;
    }
  }
  if (best == kSetarCandidates.size()) {
    return;  // Every SSE was NaN or infinite.
  }
  const SetarCandidate& winner = kSetarCandidates[best];
  for (std::size_t g = 0; g <= winner.thresholds; ++g) {
    if (g < winner.thresholds) {
      thresholds_[g] = quartiles[winner.quartile[g]];
    }
    std::copy_n(scratch.fits.begin() + regime_fit[best][g] * dim, dim,
                coefficients_.begin() + g * dim);
  }
  regimes_ = winner.thresholds + 1;
}

std::unique_ptr<Forecaster> SetarForecaster::Clone() const {
  return std::make_unique<SetarForecaster>(lags_, max_thresholds_, refit_interval_);
}

}  // namespace femux
