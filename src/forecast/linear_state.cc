#include "src/forecast/linear_state.h"

#include <algorithm>
#include <cmath>

#include "src/forecast/opaque_state.h"
#include "src/stats/linalg.h"
#include "src/stats/simd.h"

namespace femux {
namespace {

constexpr std::size_t kRebuildEverySlides = 512;
constexpr std::size_t kMinTrainSamples = 8;

// Decay/rotation ladders for the fixed transition matrix. The decay half
// spans fast-to-slow local averaging; the rotation half spans sub-hour
// periodicities (minute-granularity samples), all damped so the window
// fold forgets history beyond ~W samples and the sliding eviction update
// stays numerically tame.
constexpr double kDecayLo = 0.55;
constexpr double kDecayHi = 0.90;
constexpr double kRotationDamping = 0.92;
constexpr double kRotationBasePeriod = 6.0;

}  // namespace

LinearStateForecaster::LinearStateForecaster() : LinearStateForecaster(Options{}) {}

LinearStateForecaster::LinearStateForecaster(const Options& options)
    : options_(options) {
  if (options_.state_dim < 4) options_.state_dim = 4;
  if (options_.state_dim % 2 != 0) ++options_.state_dim;
  if (options_.window == 0) options_.window = kDefaultHistoryMinutes;
  const std::size_t h = options_.state_dim;

  // Materialize the block-diagonal transition dense column-major
  // (a_[k*h + r] = A[r][k]) so every recurrence step is one GemvColMajor
  // call; the matrix is deterministic, so every instance of a given
  // configuration shares the identical fold arithmetic.
  a_.assign(h * h, 0.0);
  b_.assign(h, 0.0);
  const std::size_t decay_channels = h / 2;
  for (std::size_t i = 0; i < decay_channels; ++i) {
    const double frac = decay_channels > 1
                            ? static_cast<double>(i) /
                                  static_cast<double>(decay_channels - 1)
                            : 0.0;
    const double rho = kDecayLo + (kDecayHi - kDecayLo) * frac;
    a_[i * h + i] = rho;
    b_[i] = 1.0 - rho;
  }
  const double pi = std::acos(-1.0);
  for (std::size_t j = 0; decay_channels + 2 * j + 1 < h; ++j) {
    const std::size_t r0 = decay_channels + 2 * j;
    const std::size_t r1 = r0 + 1;
    const double period = kRotationBasePeriod * static_cast<double>(1u << j);
    const double theta = 2.0 * pi / period;
    const double rc = kRotationDamping * std::cos(theta);
    const double rs = kRotationDamping * std::sin(theta);
    a_[r0 * h + r0] = rc;
    a_[r1 * h + r0] = -rs;
    a_[r0 * h + r1] = rs;
    a_[r1 * h + r1] = rc;
    b_[r0] = 1.0 - kRotationDamping;
  }

  // awb_ = A^W b, the exact contribution of a sample evicted from a full
  // window fold.
  awb_ = b_;
  std::vector<double> tmp(h, 0.0);
  for (std::size_t step = 0; step < options_.window; ++step) {
    std::fill(tmp.begin(), tmp.end(), 0.0);
    simd::GemvColMajor(a_.data(), h, h, h, awb_.data(), tmp.data());
    awb_.swap(tmp);
  }

  w_.assign(h, 0.0);
  h_.assign(h, 0.0);
  step_scratch_.assign(h, 0.0);
}

void LinearStateForecaster::StepState(std::vector<double>& h, double x_norm) const {
  const std::size_t n = options_.state_dim;
  // out[r] = b[r]*x + sum_k A[r][k] h[k]; the kernel accumulates onto the
  // preinitialized input term, identically in every ISA (parity-gated).
  for (std::size_t r = 0; r < n; ++r) {
    step_scratch_[r] = b_[r] * x_norm;
  }
  simd::GemvColMajor(a_.data(), n, n, n, h.data(), step_scratch_.data());
  h.swap(step_scratch_);
}

double LinearStateForecaster::Readout(const std::vector<double>& h,
                                      double x_norm_last) const {
  double y = c_ + wx_ * x_norm_last;
  for (std::size_t i = 0; i < options_.state_dim; ++i) {
    y += w_[i] * h[i];
  }
  return y;
}

void LinearStateForecaster::FoldWindow(std::span<const double> window,
                                       std::vector<double>& h) const {
  h.assign(options_.state_dim, 0.0);
  for (double x : window) {
    StepState(h, x / scale_);
  }
}

void LinearStateForecaster::TrainOnSeries(std::span<const double> series) {
  trained_ = true;
  scale_ = 1.0;
  std::fill(w_.begin(), w_.end(), 0.0);
  wx_ = 1.0;  // Degenerate fallback: persistence (predict the last value).
  c_ = 0.0;
  if (series.size() < kMinTrainSamples) {
    return;
  }
  double peak = 0.0;
  for (double v : series) {
    if (std::isfinite(v) && v > peak) peak = v;
  }
  if (peak <= 0.0) {
    return;  // All-zero history: persistence predicts 0, which is right.
  }
  scale_ = peak;

  // Run the recurrence once over the series, accumulating the Gram system
  // of the one-step-ahead ridge regression on features [h_t, x_t, 1].
  const std::size_t hd = options_.state_dim;
  const std::size_t d = hd + 2;
  Matrix gram(d, d, 0.0);
  std::vector<double> rhs(d, 0.0);
  std::vector<double> state(hd, 0.0);
  std::vector<double> phi(d, 0.0);
  std::size_t samples = 0;
  for (std::size_t t = 0; t + 1 < series.size(); ++t) {
    const double x = series[t] / scale_;
    StepState(state, x);
    for (std::size_t i = 0; i < hd; ++i) phi[i] = state[i];
    phi[hd] = x;
    phi[hd + 1] = 1.0;
    const double target = series[t + 1] / scale_;
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        gram(i, j) += phi[i] * phi[j];
      }
      rhs[i] += phi[i] * target;
    }
    ++samples;
  }
  const double lambda = options_.ridge * static_cast<double>(samples);
  for (std::size_t i = 0; i < d; ++i) {
    gram(i, i) += lambda;
  }
  const std::vector<double> theta = CholeskySolve(std::move(gram), std::move(rhs));
  if (theta.size() != d) {
    return;  // Keep the persistence fallback.
  }
  bool finite = true;
  for (double v : theta) {
    if (!std::isfinite(v)) finite = false;
  }
  if (!finite) {
    return;
  }
  for (std::size_t i = 0; i < hd; ++i) w_[i] = theta[i];
  wx_ = theta[hd];
  c_ = theta[hd + 1];
}

std::vector<double> LinearStateForecaster::Forecast(std::span<const double> history,
                                                    std::size_t horizon) {
  if (!trained_) {
    TrainOnSeries(history);
  }
  std::vector<double> out(horizon, 0.0);
  if (horizon == 0) return out;
  if (history.empty()) {
    return out;
  }
  const std::size_t len = std::min(history.size(), options_.window);
  std::vector<double> state;
  FoldWindow(history.last(len), state);
  double x_norm = history.back() / scale_;
  for (std::size_t s = 0; s < horizon; ++s) {
    const double pred_norm = Readout(state, x_norm);
    out[s] = ClampPrediction(pred_norm * scale_);
    if (s + 1 < horizon) {
      // Autoregressive continuation on the clamped prediction.
      x_norm = out[s] / scale_;
      StepState(state, x_norm);
    }
  }
  return out;
}

std::unique_ptr<Forecaster> LinearStateForecaster::Clone() const {
  // Fresh untrained instance (matches LstmForecaster::Clone); trained
  // parameters travel via Save/LoadOpaqueState instead.
  return std::make_unique<LinearStateForecaster>(options_);
}

void LinearStateForecaster::BeginWindow(std::span<const double> window,
                                        std::size_t capacity) {
  (void)capacity;  // The fold window is the model's own `window`.
  if (!trained_) {
    TrainOnSeries(window);
  }
  FoldWindow(OwnWindow(window), h_);
  slides_since_rebuild_ = 0;
}

void LinearStateForecaster::ObserveAppend(std::span<const double> previous,
                                          std::span<const double> window) {
  const std::span<const double> before = OwnWindow(previous);
  StepState(h_, window.back() / scale_);
  if (before.size() == options_.window) {
    // Remove the evicted sample's (fully decayed) contribution: after the
    // step above its weight in h_ is exactly A^W b * x_old.
    const double x_old = before.front() / scale_;
    for (std::size_t i = 0; i < options_.state_dim; ++i) {
      h_[i] -= awb_[i] * x_old;
    }
    if (++slides_since_rebuild_ >= kRebuildEverySlides) {
      FoldWindow(OwnWindow(window), h_);
      slides_since_rebuild_ = 0;
    }
  }
}

double LinearStateForecaster::ForecastNext(std::span<const double> window) {
  if (window.empty()) return 0.0;
  if (!trained_) {
    TrainOnSeries(OwnWindow(window));
    FoldWindow(OwnWindow(window), h_);
    slides_since_rebuild_ = 0;
  }
  const double pred_norm = Readout(h_, window.back() / scale_);
  return ClampPrediction(pred_norm * scale_);
}

std::string LinearStateForecaster::SaveOpaqueState() const {
  std::string blob;
  opaque::AppendField(blob, "lsv1");
  opaque::AppendUint(blob, options_.state_dim);
  opaque::AppendUint(blob, options_.window);
  opaque::AppendUint(blob, trained_ ? 1 : 0);
  opaque::AppendDouble(blob, scale_);
  opaque::AppendDoubles(blob, w_);
  opaque::AppendDouble(blob, wx_);
  opaque::AppendDouble(blob, c_);
  return blob;
}

bool LinearStateForecaster::LoadOpaqueState(std::string_view blob) {
  opaque::Reader reader(blob);
  std::string_view magic;
  if (!reader.NextField(magic) || magic != "lsv1") return false;
  std::size_t state_dim = 0;
  std::size_t window = 0;
  std::size_t trained_flag = 0;
  double scale = 1.0;
  std::vector<double> w;
  double wx = 0.0;
  double c = 0.0;
  if (!reader.NextUint(state_dim) || state_dim != options_.state_dim) return false;
  if (!reader.NextUint(window) || window != options_.window) return false;
  if (!reader.NextUint(trained_flag) || trained_flag > 1) return false;
  if (!reader.NextDouble(scale) || !std::isfinite(scale) || scale <= 0.0) {
    return false;
  }
  if (!reader.NextDoubles(w, state_dim)) return false;
  if (!reader.NextDouble(wx)) return false;
  if (!reader.NextDouble(c)) return false;
  trained_ = trained_flag == 1;
  scale_ = scale;
  w_ = std::move(w);
  wx_ = wx;
  c_ = c;
  // Window state never travels in the blob; the caller re-seeds it from
  // its retained ring via BeginWindow (ForecastStream::Restore).
  std::fill(h_.begin(), h_.end(), 0.0);
  slides_since_rebuild_ = 0;
  return true;
}

}  // namespace femux
