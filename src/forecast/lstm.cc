#include "src/forecast/lstm.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/forecast/opaque_state.h"
#include "src/stats/rng.h"
#include "src/stats/simd.h"

namespace femux {
namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// Flat parameter block with its Adam moments.
struct Param {
  std::vector<double> value;
  std::vector<double> grad;
  std::vector<double> m;
  std::vector<double> v;

  void Init(std::size_t n, double scale, Rng& rng) {
    value.resize(n);
    for (double& w : value) {
      w = rng.Normal(0.0, scale);
    }
    grad.assign(n, 0.0);
    m.assign(n, 0.0);
    v.assign(n, 0.0);
  }

  void AdamStep(double lr, double beta1, double beta2, double eps, double bias1,
                double bias2) {
    for (std::size_t i = 0; i < value.size(); ++i) {
      m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
      v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
      const double mh = m[i] / bias1;
      const double vh = v[i] / bias2;
      value[i] -= lr * mh / (std::sqrt(vh) + eps);
      grad[i] = 0.0;
    }
  }
};

}  // namespace

struct LstmForecaster::Impl {
  LstmOptions options;
  std::size_t hidden = 0;
  // Gate order within the 4H blocks: input, forget, cell, output.
  Param wx;  // 4H (input is scalar).
  Param wh;  // 4H x H.
  Param b;   // 4H.
  Param wy;  // H.
  Param by;  // 1.
  double scale = 1.0;  // Normalization divisor learned from training data.
  bool trained = false;
  std::size_t adam_t = 0;

  // Column-major serving copy of wh (whT[k * 4H + r] = wh.value[r * H + k])
  // for the GemvColMajor forward pass; rebuilt lazily whenever the weights
  // change. The z scratch holds the 4H pre-activations.
  mutable std::vector<double> wh_colmajor;
  mutable bool wh_colmajor_dirty = true;
  mutable std::vector<double> z_scratch;

  void EnsureWhColmajor() const {
    const std::size_t rows = 4 * hidden;
    if (!wh_colmajor_dirty && wh_colmajor.size() == rows * hidden) return;
    wh_colmajor.resize(rows * hidden);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t k = 0; k < hidden; ++k) {
        wh_colmajor[k * rows + r] = wh.value[r * hidden + k];
      }
    }
    wh_colmajor_dirty = false;
  }

  // Per-step activations cached for BPTT.
  struct Step {
    double x = 0.0;
    std::vector<double> i, f, g, o, c, h, c_prev, h_prev;
  };

  explicit Impl(LstmOptions opts) : options(opts), hidden(opts.hidden) {
    Rng rng(opts.seed);
    const double s = 1.0 / std::sqrt(static_cast<double>(hidden));
    wx.Init(4 * hidden, s, rng);
    wh.Init(4 * hidden * hidden, s, rng);
    b.Init(4 * hidden, 0.0, rng);
    // Forget-gate bias starts positive (standard trick for gradient flow).
    for (std::size_t j = 0; j < hidden; ++j) {
      b.value[hidden + j] = 1.0;
    }
    wy.Init(hidden, s, rng);
    by.Init(1, 0.0, rng);
  }

  void ForwardStep(double x, const std::vector<double>& h_prev,
                   const std::vector<double>& c_prev, Step& step) const {
    const std::size_t H = hidden;
    step.x = x;
    step.h_prev = h_prev;
    step.c_prev = c_prev;
    step.i.resize(H);
    step.f.resize(H);
    step.g.resize(H);
    step.o.resize(H);
    step.c.resize(H);
    step.h.resize(H);
    // Pre-activations via the SIMD kernel: seed z[r] = wx[r]*x + b[r], then
    // accumulate the recurrent term through the column-major weight copy.
    // The kernel's accumulation runs per row in ascending k order, exactly
    // the per-gate loop it replaces, so this is bit-identical to the scalar
    // form on every ISA (parity-gated in tests/stats/simd_kernel_test.cc).
    EnsureWhColmajor();
    const std::size_t rows = 4 * H;
    z_scratch.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      z_scratch[r] = wx.value[r] * x + b.value[r];
    }
    simd::GemvColMajor(wh_colmajor.data(), rows, H, rows, h_prev.data(),
                       z_scratch.data());
    for (std::size_t j = 0; j < H; ++j) {
      step.i[j] = Sigmoid(z_scratch[0 * H + j]);
      step.f[j] = Sigmoid(z_scratch[1 * H + j]);
      step.g[j] = std::tanh(z_scratch[2 * H + j]);
      step.o[j] = Sigmoid(z_scratch[3 * H + j]);
      step.c[j] = step.f[j] * c_prev[j] + step.i[j] * step.g[j];
      step.h[j] = step.o[j] * std::tanh(step.c[j]);
    }
  }

  // Runs a window forward; returns prediction (normalized space).
  double ForwardWindow(std::span<const double> window, std::vector<Step>* steps) const {
    std::vector<double> h(hidden, 0.0);
    std::vector<double> c(hidden, 0.0);
    Step scratch;
    for (double x : window) {
      Step& step = steps != nullptr ? steps->emplace_back() : scratch;
      ForwardStep(x, h, c, step);
      h = step.h;
      c = step.c;
    }
    double y = by.value[0];
    for (std::size_t j = 0; j < hidden; ++j) {
      y += wy.value[j] * h[j];
    }
    return y;
  }

  // BPTT for a single (window, target) pair; accumulates gradients and
  // returns squared error.
  double BackwardWindow(const std::vector<Step>& steps, double prediction,
                        double target) {
    const std::size_t H = hidden;
    const double dy = 2.0 * (prediction - target);
    std::vector<double> dh(H, 0.0);
    std::vector<double> dc(H, 0.0);
    for (std::size_t j = 0; j < H; ++j) {
      wy.grad[j] += dy * steps.back().h[j];
      dh[j] = dy * wy.value[j];
    }
    by.grad[0] += dy;

    for (std::size_t t = steps.size(); t-- > 0;) {
      const Step& s = steps[t];
      std::vector<double> dh_prev(H, 0.0);
      std::vector<double> dc_prev(H, 0.0);
      for (std::size_t j = 0; j < H; ++j) {
        const double tanh_c = std::tanh(s.c[j]);
        const double do_ = dh[j] * tanh_c;
        const double dct = dc[j] + dh[j] * s.o[j] * (1.0 - tanh_c * tanh_c);
        const double di = dct * s.g[j];
        const double df = dct * s.c_prev[j];
        const double dg = dct * s.i[j];
        dc_prev[j] = dct * s.f[j];
        const double dzi = di * s.i[j] * (1.0 - s.i[j]);
        const double dzf = df * s.f[j] * (1.0 - s.f[j]);
        const double dzg = dg * (1.0 - s.g[j] * s.g[j]);
        const double dzo = do_ * s.o[j] * (1.0 - s.o[j]);

        wx.grad[0 * H + j] += dzi * s.x;
        wx.grad[1 * H + j] += dzf * s.x;
        wx.grad[2 * H + j] += dzg * s.x;
        wx.grad[3 * H + j] += dzo * s.x;
        b.grad[0 * H + j] += dzi;
        b.grad[1 * H + j] += dzf;
        b.grad[2 * H + j] += dzg;
        b.grad[3 * H + j] += dzo;
        for (std::size_t k = 0; k < H; ++k) {
          wh.grad[(0 * H + j) * H + k] += dzi * s.h_prev[k];
          wh.grad[(1 * H + j) * H + k] += dzf * s.h_prev[k];
          wh.grad[(2 * H + j) * H + k] += dzg * s.h_prev[k];
          wh.grad[(3 * H + j) * H + k] += dzo * s.h_prev[k];
          dh_prev[k] += dzi * wh.value[(0 * H + j) * H + k] +
                        dzf * wh.value[(1 * H + j) * H + k] +
                        dzg * wh.value[(2 * H + j) * H + k] +
                        dzo * wh.value[(3 * H + j) * H + k];
        }
      }
      dh = std::move(dh_prev);
      dc = std::move(dc_prev);
    }
    const double err = prediction - target;
    return err * err;
  }

  void AdamAll(double lr) {
    ++adam_t;
    constexpr double kBeta1 = 0.9;
    constexpr double kBeta2 = 0.999;
    constexpr double kEps = 1e-8;
    const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(adam_t));
    const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(adam_t));
    wx.AdamStep(lr, kBeta1, kBeta2, kEps, bias1, bias2);
    wh.AdamStep(lr, kBeta1, kBeta2, kEps, bias1, bias2);
    b.AdamStep(lr, kBeta1, kBeta2, kEps, bias1, bias2);
    wy.AdamStep(lr, kBeta1, kBeta2, kEps, bias1, bias2);
    by.AdamStep(lr, kBeta1, kBeta2, kEps, bias1, bias2);
    wh_colmajor_dirty = true;
  }

  // The batch Forecast's one-step computation, shared verbatim with the
  // incremental path: normalize the window, left-pad with idle to `window`
  // samples, run forward, denormalize and clamp.
  double ForecastOneFromWindow(std::span<const double> window) const {
    const std::size_t w = options.window;
    std::vector<double> norm;
    norm.reserve(w);
    const std::size_t take = std::min(window.size(), w);
    for (std::size_t i = window.size() - take; i < window.size(); ++i) {
      norm.push_back(window[i] / scale);
    }
    while (norm.size() < w) {
      norm.insert(norm.begin(), 0.0);
    }
    const double pred = ForwardWindow(norm, nullptr);
    return ClampPrediction(pred * scale);
  }
};

LstmForecaster::LstmForecaster(LstmOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

LstmForecaster::~LstmForecaster() = default;

LstmForecaster::LstmForecaster(const LstmForecaster& other)
    : impl_(std::make_unique<Impl>(*other.impl_)) {}

bool LstmForecaster::trained() const { return impl_->trained; }

double LstmForecaster::TrainOnSeries(std::span<const double> series) {
  Impl& net = *impl_;
  const std::size_t w = net.options.window;
  if (series.size() <= w + 1) {
    net.trained = true;  // Nothing to learn from; predict-zero network.
    return 0.0;
  }
  // Normalize to roughly [0, 1] by the series max.
  double peak = 1.0;
  for (double v : series) {
    peak = std::max(peak, v);
  }
  net.scale = peak;
  std::vector<double> norm(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    norm[i] = series[i] / peak;
  }

  const std::size_t total_windows = series.size() - w;
  const std::size_t stride =
      std::max<std::size_t>(1, total_windows / net.options.max_train_windows);

  double last_epoch_mse = 0.0;
  std::vector<Impl::Step> steps;
  for (std::size_t epoch = 0; epoch < net.options.epochs; ++epoch) {
    double sse = 0.0;
    std::size_t count = 0;
    for (std::size_t start = 0; start + w < norm.size(); start += stride) {
      steps.clear();
      const std::span<const double> window(norm.data() + start, w);
      const double pred = net.ForwardWindow(window, &steps);
      sse += net.BackwardWindow(steps, pred, norm[start + w]);
      net.AdamAll(net.options.learning_rate);
      ++count;
    }
    last_epoch_mse = count > 0 ? sse / static_cast<double>(count) : 0.0;
  }
  net.trained = true;
  return last_epoch_mse;
}

std::vector<double> LstmForecaster::Forecast(std::span<const double> history,
                                             std::size_t horizon) {
  Impl& net = *impl_;
  if (!net.trained) {
    TrainOnSeries(history);
  }
  const std::size_t w = net.options.window;
  std::vector<double> norm;
  norm.reserve(w);
  const std::size_t take = std::min(history.size(), w);
  for (std::size_t i = history.size() - take; i < history.size(); ++i) {
    norm.push_back(history[i] / net.scale);
  }
  while (norm.size() < w) {
    norm.insert(norm.begin(), 0.0);  // Left-pad short histories with idle.
  }
  std::vector<double> out;
  out.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    const double pred = net.ForwardWindow(norm, nullptr);
    const double denorm = ClampPrediction(pred * net.scale);
    out.push_back(denorm);
    norm.erase(norm.begin());
    norm.push_back(pred);
  }
  return out;
}

std::unique_ptr<Forecaster> LstmForecaster::Clone() const {
  return std::make_unique<LstmForecaster>(LstmOptions(impl_->options));
}

void LstmForecaster::BeginWindow(std::span<const double> window,
                                 std::size_t capacity) {
  (void)capacity;  // The forecast window is the model's own `window`.
  if (!impl_->trained) {
    TrainOnSeries(window);  // Mirrors the batch first-call training.
  }
}

double LstmForecaster::ForecastNext(std::span<const double> window) {
  Impl& net = *impl_;
  window = window.last(std::min(window.size(), net.options.window));
  if (!net.trained) {
    TrainOnSeries(window);
  }
  return net.ForecastOneFromWindow(window);
}

std::string LstmForecaster::SaveOpaqueState() const {
  const Impl& net = *impl_;
  std::string blob;
  opaque::AppendField(blob, "lstmv1");
  opaque::AppendUint(blob, net.hidden);
  opaque::AppendUint(blob, net.options.window);
  opaque::AppendUint(blob, net.trained ? 1 : 0);
  opaque::AppendDouble(blob, net.scale);
  opaque::AppendDoubles(blob, net.wx.value);
  opaque::AppendDoubles(blob, net.wh.value);
  opaque::AppendDoubles(blob, net.b.value);
  opaque::AppendDoubles(blob, net.wy.value);
  opaque::AppendDoubles(blob, net.by.value);
  return blob;
}

bool LstmForecaster::LoadOpaqueState(std::string_view blob) {
  Impl& net = *impl_;
  const std::size_t H = net.hidden;
  opaque::Reader reader(blob);
  std::string_view magic;
  if (!reader.NextField(magic) || magic != "lstmv1") return false;
  std::size_t hidden = 0;
  std::size_t window = 0;
  std::size_t trained_flag = 0;
  double scale = 1.0;
  std::vector<double> wx, wh, b, wy, by;
  if (!reader.NextUint(hidden) || hidden != H) return false;
  if (!reader.NextUint(window) || window != net.options.window) return false;
  if (!reader.NextUint(trained_flag) || trained_flag > 1) return false;
  if (!reader.NextDouble(scale) || !std::isfinite(scale) || scale <= 0.0) {
    return false;
  }
  if (!reader.NextDoubles(wx, 4 * H)) return false;
  if (!reader.NextDoubles(wh, 4 * H * H)) return false;
  if (!reader.NextDoubles(b, 4 * H)) return false;
  if (!reader.NextDoubles(wy, H)) return false;
  if (!reader.NextDoubles(by, 1)) return false;
  net.trained = trained_flag == 1;
  net.scale = scale;
  net.wx.value = std::move(wx);
  net.wh.value = std::move(wh);
  net.b.value = std::move(b);
  net.wy.value = std::move(wy);
  net.by.value = std::move(by);
  // Restored instances restart the optimizer cold: moments and step count
  // are serving-irrelevant and deliberately not serialized.
  for (Param* p : {&net.wx, &net.wh, &net.b, &net.wy, &net.by}) {
    const std::size_t n = p->value.size();
    p->grad.assign(n, 0.0);
    p->m.assign(n, 0.0);
    p->v.assign(n, 0.0);
  }
  net.adam_t = 0;
  net.wh_colmajor_dirty = true;
  return true;
}

}  // namespace femux
