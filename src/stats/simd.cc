// Scalar reference kernels and the runtime ISA dispatcher for the SIMD
// kernel layer (see simd.h for the parity contract). The scalar bodies
// below are the normative definitions: every vectorized implementation in
// simd_kernels.inc must reproduce them bit for bit, and the vector TUs'
// scalar tails are copies of these loops.
#include "src/stats/simd.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

namespace femux {
namespace simd {

// Defined in simd_isa_{avx2,avx512}.cc; nullptr when not compiled in.
const KernelTable* Avx2Table();
const KernelTable* Avx512Table();

namespace {

void ScalarButterflyStage(std::complex<double>* a,
                          const std::complex<double>* tw, std::size_t n,
                          std::size_t len) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const double wr = tw[k].real();
      const double wi = tw[k].imag();
      std::complex<double>& u = a[i + k];
      std::complex<double>& v = a[i + k + half];
      const double vr = v.real() * wr - v.imag() * wi;
      const double vi = v.real() * wi + v.imag() * wr;
      const double ur = u.real();
      const double ui = u.imag();
      u = {ur + vr, ui + vi};
      v = {ur - vr, ui - vi};
    }
  }
}

void ScalarCMulInplace(std::complex<double>* x, const std::complex<double>* y,
                       std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = x[k].real();
    const double ai = x[k].imag();
    const double br = y[k].real();
    const double bi = y[k].imag();
    x[k] = {ar * br - ai * bi, ar * bi + ai * br};
  }
}

void ScalarCMulTo(std::complex<double>* dst, const std::complex<double>* x,
                  const std::complex<double>* y, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = x[k].real();
    const double ai = x[k].imag();
    const double br = y[k].real();
    const double bi = y[k].imag();
    dst[k] = {ar * br - ai * bi, ar * bi + ai * br};
  }
}

void ScalarCDivMulTo(std::complex<double>* dst, const std::complex<double>* x,
                     double divisor, const std::complex<double>* y,
                     std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = x[k].real() / divisor;
    const double ai = x[k].imag() / divisor;
    const double br = y[k].real();
    const double bi = y[k].imag();
    dst[k] = {ar * br - ai * bi, ar * bi + ai * br};
  }
}

void ScalarRealCMulTo(std::complex<double>* dst, const double* x,
                      const std::complex<double>* y, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    dst[k] = {x[k] * y[k].real(), x[k] * y[k].imag()};
  }
}

void ScalarSlideUpdate(std::complex<double>* bins, const double* deltas,
                       std::size_t slides, const std::complex<double>* tw,
                       std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double br = tw[k].real();
    const double bi = tw[k].imag();
    double re = bins[k].real();
    double im = bins[k].imag();
    for (std::size_t s = 0; s < slides; ++s) {
      const double ar = re + deltas[s];
      const double next_im = ar * bi + im * br;
      re = ar * br - im * bi;
      im = next_im;
    }
    bins[k] = {re, im};
  }
}

void ScalarSesSweep(const double* y, std::size_t n, const double* alphas,
                    std::size_t g, double* levels, double* sses) {
  for (std::size_t gi = 0; gi < g; ++gi) {
    const double alpha = alphas[gi];
    double level = y[0];
    double sse = 0.0;
    for (std::size_t t = 1; t < n; ++t) {
      const double err = y[t] - level;
      sse += err * err;
      level += alpha * err;
    }
    levels[gi] = level;
    sses[gi] = sse;
  }
}

void ScalarHoltSweep(const double* y, std::size_t n, const double* alphas,
                     const double* alpha_betas, std::size_t g, double* levels,
                     double* trends, double* sses) {
  const double init_trend = n > 1 ? y[1] - y[0] : 0.0;
  for (std::size_t gi = 0; gi < g; ++gi) {
    const double alpha = alphas[gi];
    const double ab = alpha_betas[gi];
    double level = y[0];
    double trend = init_trend;
    double sse = 0.0;
    for (std::size_t t = 1; t < n; ++t) {
      const double pred = level + trend;
      const double err = y[t] - pred;
      sse += err * err;
      const double new_level = pred + alpha * err;
      trend += ab * err;
      level = new_level;
    }
    levels[gi] = level;
    trends[gi] = trend;
    sses[gi] = sse;
  }
}

std::uint64_t ScalarBdsCountWithin(const double* series,
                                   const std::uint32_t* idx, std::size_t count,
                                   std::size_t i, std::size_t dimension,
                                   double epsilon) {
  std::uint64_t close = 0;
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t j = idx[q];
    bool within = true;
    for (std::size_t t = 1; t < dimension; ++t) {
      if (std::abs(series[i + t] - series[j + t]) > epsilon) {
        within = false;
        break;
      }
    }
    close += within ? 1 : 0;
  }
  return close;
}

void ScalarKmeansDistances(const double* point, std::size_t dims,
                           const double* soa, std::size_t k, std::size_t stride,
                           double* out) {
  for (std::size_t c = 0; c < k; ++c) {
    double acc = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double diff = point[d] - soa[d * stride + c];
      acc += diff * diff;
    }
    out[c] = acc;
  }
}

void ScalarGemvColMajor(const double* m, std::size_t rows, std::size_t cols,
                        std::size_t stride, const double* v, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = out[r];
    for (std::size_t k = 0; k < cols; ++k) {
      acc += m[k * stride + r] * v[k];
    }
    out[r] = acc;
  }
}

void ScalarAxpy(double* y, double a, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += a * x[i];
  }
}

double ScalarDotUnordered(const double* a, const double* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

KernelTable MakeScalarTable() {
  KernelTable t;
  t.isa = "scalar";
  t.lanes = 1;
  t.butterfly_stage = &ScalarButterflyStage;
  t.cmul_inplace = &ScalarCMulInplace;
  t.cmul_to = &ScalarCMulTo;
  t.cdiv_mul_to = &ScalarCDivMulTo;
  t.real_cmul_to = &ScalarRealCMulTo;
  t.slide_update = &ScalarSlideUpdate;
  t.ses_sweep = &ScalarSesSweep;
  t.holt_sweep = &ScalarHoltSweep;
  t.bds_count_within = &ScalarBdsCountWithin;
  t.kmeans_distances = &ScalarKmeansDistances;
  t.gemv_colmajor = &ScalarGemvColMajor;
  t.axpy = &ScalarAxpy;
  t.dot_unordered = &ScalarDotUnordered;
  return t;
}

// __builtin_cpu_supports("avx512f") also requires the OS to have enabled
// the opmask and ZMM register state (libgcc checks XCR0).
bool CpuSupports(const std::string& isa) {
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (isa == "avx512") return __builtin_cpu_supports("avx512f") != 0;
  if (isa == "avx2") return __builtin_cpu_supports("avx2") != 0;
#endif
  return false;
}

std::string EnvSetting() {
  const char* raw = std::getenv("FEMUX_SIMD");
  if (raw == nullptr) return "";
  std::string s(raw);
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

bool EnvForcesScalar(const std::string& env) {
  return env == "off" || env == "0" || env == "scalar";
}

// The table named `isa` when it is compiled in and this CPU supports it;
// nullptr otherwise.
const KernelTable* Usable(const std::string& isa) {
  if (isa == "scalar") return &ScalarTable();
  if (!CpuSupports(isa)) return nullptr;
  if (isa == "avx512") return Avx512Table();
  if (isa == "avx2") return Avx2Table();
  return nullptr;
}

// Widest usable table: AVX-512, then AVX2, then scalar.
const KernelTable* WidestAvailable() {
  for (const char* isa : {"avx512", "avx2"}) {
    if (const KernelTable* t = Usable(isa)) return t;
  }
  return &ScalarTable();
}

// "off"/"0"/"scalar" force the scalar table; "avx2" or "avx512" request
// that table when usable. Anything else ("", "auto", an unusable or
// unknown ISA such as "sse2") picks the widest.
const KernelTable* SelectFromEnv() {
  const std::string env = EnvSetting();
  if (EnvForcesScalar(env)) return &ScalarTable();
  if (const KernelTable* t = Usable(env)) return t;
  return WidestAvailable();
}

std::atomic<const KernelTable*> g_active{nullptr};

}  // namespace

const KernelTable& ScalarTable() {
  static const KernelTable table = MakeScalarTable();
  return table;
}

const KernelTable& ActiveTable() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    // Selection is idempotent; a benign race just repeats it.
    t = SelectFromEnv();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

SimdCaps GetSimdCaps() {
  SimdCaps caps;
  caps.detected_isa = CpuSupports("avx512") ? "avx512"
                      : CpuSupports("avx2") ? "avx2"
                                            : "scalar";
  const KernelTable& active = ActiveTable();
  caps.active_isa = active.isa;
  caps.lanes = active.lanes;
  caps.enabled = !EnvForcesScalar(EnvSetting());
  const char* raw = std::getenv("FEMUX_SIMD");
  caps.env = raw == nullptr ? "" : raw;
  return caps;
}

bool ForceIsaForTest(const std::string& isa) {
  const KernelTable* t = isa.empty() ? SelectFromEnv() : Usable(isa);
  if (t == nullptr) {
    return false;
  }
  g_active.store(t, std::memory_order_release);
  return true;
}

}  // namespace simd
}  // namespace femux
