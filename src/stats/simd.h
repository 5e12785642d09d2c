// Portable SIMD kernel layer (DESIGN.md §12).
//
// The inner math of the training and serving hot paths — FFT butterflies,
// Bluestein chirp multiplies, sliding-DFT bin updates, SES/Holt grid
// sweeps, BDS neighbor counting, K-means distance loops, and the dot/axpy
// primitives — funnels through the free functions below. Each function is
// dispatched at runtime to the widest instruction set the CPU supports
// (AVX2 → SSE2 → scalar on x86-64; scalar elsewhere), with the scalar
// implementation always available as the reference.
//
// Parity contract: every vectorized implementation is *bit-identical* to
// the scalar one, input for input. This is achievable because each kernel
// is a "vertical" vectorization — lanes are independent problems (grid
// points, spectrum bins, centroids, array elements) and every lane
// performs exactly the scalar operation sequence, with no reassociation,
// no FMA contraction, and no fast-math. The one deliberate exception is
// DotUnordered, which reassociates across accumulator lanes and is only
// used where the caller's contract is tolerance-based (benches/tests), not
// in the bit-exact product paths. The contract is enforced by
// tests/stats/simd_kernel_test.cc (randomized lanes/tails/denormals) and
// bench/bench_simd_kernels (timed parity gate).
//
// Environment:
//   FEMUX_SIMD=off|0|scalar   force the scalar implementations
//   FEMUX_SIMD=sse2|avx2      force a specific ISA (falls back to the
//                             widest supported one if unavailable)
//
// The complex kernels operate on the guaranteed (re, im) array layout of
// std::complex<double> and implement the finite-math fast path of C99
// Annex G complex multiplication (the same formula GCC inlines before its
// NaN fixup branch); series in this codebase are finite, and the property
// suites pin the behavior on denormals and signed zeros.
#ifndef SRC_STATS_SIMD_H_
#define SRC_STATS_SIMD_H_

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace femux {
namespace simd {

// One entry per kernel family, exported so bench JSONs can attribute perf
// numbers to the exact dispatch decision (DESIGN.md §12).
struct KernelTable {
  const char* isa = "scalar";  // "scalar" | "sse2" | "avx2"
  int lanes = 1;               // double lanes per vector op

  // One radix-2 butterfly stage of width `len` over `n` complex samples:
  // for every block i (step len) and k in [0, len/2):
  //   u = a[i+k]; v = a[i+k+len/2] * tw[k]; a[i+k] = u+v; a[i+k+len/2] = u-v.
  void (*butterfly_stage)(std::complex<double>* a,
                          const std::complex<double>* tw, std::size_t n,
                          std::size_t len) = nullptr;
  // x[k] *= y[k]
  void (*cmul_inplace)(std::complex<double>* x, const std::complex<double>* y,
                       std::size_t n) = nullptr;
  // dst[k] = x[k] * y[k]
  void (*cmul_to)(std::complex<double>* dst, const std::complex<double>* x,
                  const std::complex<double>* y, std::size_t n) = nullptr;
  // dst[k] = (x[k] / divisor) * y[k]   (the final Bluestein de-chirp)
  void (*cdiv_mul_to)(std::complex<double>* dst, const std::complex<double>* x,
                      double divisor, const std::complex<double>* y,
                      std::size_t n) = nullptr;
  // dst[k] = x[k] * y[k] with real x (the packed odd-length chirp modulation)
  void (*real_cmul_to)(std::complex<double>* dst, const double* x,
                       const std::complex<double>* y, std::size_t n) = nullptr;
  // `slides` sliding-DFT slides, bin-major: for each bin k, for each s in
  // [0, slides) in order, bins[k] = (bins[k] + deltas[s]) * tw[k], that is
  //   ar = re + deltas[s]; re' = ar*br - im*bi; im' = ar*bi + im*br.
  // A bin's slides run in slide order, so one call with S slides equals S
  // one-slide calls bit for bit. The vector tables split the bins into real
  // and imaginary lanes once per call and run several lane groups side by
  // side (DESIGN.md §12).
  void (*slide_update)(std::complex<double>* bins, const double* deltas,
                       std::size_t slides, const std::complex<double>* tw,
                       std::size_t n) = nullptr;
  // SES one-step-ahead SSE sweep over `g` alphas (lanes = grid points):
  // per alpha: level = y[0]; for t in [1, n): err = y[t] - level;
  // sse += err*err; level += alpha*err. Writes levels[g], sses[g].
  // Requires n >= 1. The vector tables register-block the grid: each
  // sample advances up to 9 vector groups, the last one padded with the
  // last grid point, and only the g real lanes are stored (DESIGN.md §12).
  void (*ses_sweep)(const double* y, std::size_t n, const double* alphas,
                    std::size_t g, double* levels, double* sses) = nullptr;
  // Holt sweep over `g` (alpha, alpha*beta) grid points: level = y[0],
  // trend = y[1]-y[0] (0 when n == 1); per t: pred = level+trend;
  // err = y[t]-pred; sse += err*err; level = pred + alpha*err;
  // trend += ab*err. Requires n >= 1; blocked like ses_sweep.
  void (*holt_sweep)(const double* y, std::size_t n, const double* alphas,
                     const double* alpha_betas, std::size_t g, double* levels,
                     double* trends, double* sses) = nullptr;
  // BDS sup-norm extension count: of the `count` candidates j = idx[q],
  // how many satisfy |series[i+t] - series[j+t]| <= epsilon for every
  // t in [1, dimension). (The 1-D t = 0 test is the caller's sorted
  // window; counts are integers, so any evaluation order is exact.)
  std::uint64_t (*bds_count_within)(const double* series,
                                    const std::uint32_t* idx, std::size_t count,
                                    std::size_t i, std::size_t dimension,
                                    double epsilon) = nullptr;
  // Squared Euclidean distances from `point` to `k` centroids stored
  // column-major (soa[d * stride + c]); per centroid the accumulation runs
  // in ascending dimension order, matching the scalar loop.
  void (*kmeans_distances)(const double* point, std::size_t dims,
                           const double* soa, std::size_t k, std::size_t stride,
                           double* out) = nullptr;
  // Accumulating column-major GEMV: out[r] += sum_k m[k * stride + r] * v[k]
  // for r in [0, rows), with the per-row accumulation running in ascending
  // k order (lanes = output rows, matching the scalar loop). The caller
  // pre-initializes `out` (bias + input terms), which is what lets the
  // learned forecasters' recurrence steps reproduce the scalar reference
  // operation for operation (DESIGN.md §15).
  void (*gemv_colmajor)(const double* m, std::size_t rows, std::size_t cols,
                        std::size_t stride, const double* v,
                        double* out) = nullptr;
  // y[i] += a * x[i]
  void (*axpy)(double* y, double a, const double* x, std::size_t n) = nullptr;
  // Multi-accumulator dot product. NOT bit-exact against a left-to-right
  // scalar fold (lane sums are combined pairwise); tolerance contexts only.
  double (*dot_unordered)(const double* a, const double* b,
                          std::size_t n) = nullptr;
};

// The always-available scalar reference table and the runtime-selected
// active table (honors FEMUX_SIMD and CPU detection; selected once, on
// first use, in a thread-safe way).
const KernelTable& ScalarTable();
const KernelTable& ActiveTable();

// Convenience wrappers through the active table — these are what the
// product call sites use.
inline void ButterflyStage(std::complex<double>* a,
                           const std::complex<double>* tw, std::size_t n,
                           std::size_t len) {
  ActiveTable().butterfly_stage(a, tw, n, len);
}
inline void CMulInplace(std::complex<double>* x, const std::complex<double>* y,
                        std::size_t n) {
  ActiveTable().cmul_inplace(x, y, n);
}
inline void CMulTo(std::complex<double>* dst, const std::complex<double>* x,
                   const std::complex<double>* y, std::size_t n) {
  ActiveTable().cmul_to(dst, x, y, n);
}
inline void CDivMulTo(std::complex<double>* dst, const std::complex<double>* x,
                      double divisor, const std::complex<double>* y,
                      std::size_t n) {
  ActiveTable().cdiv_mul_to(dst, x, divisor, y, n);
}
inline void RealCMulTo(std::complex<double>* dst, const double* x,
                       const std::complex<double>* y, std::size_t n) {
  ActiveTable().real_cmul_to(dst, x, y, n);
}
inline void SlideUpdate(std::complex<double>* bins, const double* deltas,
                        std::size_t slides, const std::complex<double>* tw,
                        std::size_t n) {
  ActiveTable().slide_update(bins, deltas, slides, tw, n);
}
inline void SesSweep(const double* y, std::size_t n, const double* alphas,
                     std::size_t g, double* levels, double* sses) {
  ActiveTable().ses_sweep(y, n, alphas, g, levels, sses);
}
inline void HoltSweep(const double* y, std::size_t n, const double* alphas,
                      const double* alpha_betas, std::size_t g, double* levels,
                      double* trends, double* sses) {
  ActiveTable().holt_sweep(y, n, alphas, alpha_betas, g, levels, trends, sses);
}
inline std::uint64_t BdsCountWithin(const double* series,
                                    const std::uint32_t* idx, std::size_t count,
                                    std::size_t i, std::size_t dimension,
                                    double epsilon) {
  return ActiveTable().bds_count_within(series, idx, count, i, dimension,
                                        epsilon);
}
inline void KmeansDistances(const double* point, std::size_t dims,
                            const double* soa, std::size_t k,
                            std::size_t stride, double* out) {
  ActiveTable().kmeans_distances(point, dims, soa, k, stride, out);
}
inline void GemvColMajor(const double* m, std::size_t rows, std::size_t cols,
                         std::size_t stride, const double* v, double* out) {
  ActiveTable().gemv_colmajor(m, rows, cols, stride, v, out);
}
inline void Axpy(double* y, double a, const double* x, std::size_t n) {
  ActiveTable().axpy(y, a, x, n);
}
inline double DotUnordered(const double* a, const double* b, std::size_t n) {
  return ActiveTable().dot_unordered(a, b, n);
}

// Capability report for observability (bench JSONs, DESIGN.md §12).
struct SimdCaps {
  std::string detected_isa;    // Widest ISA the CPU supports ("avx2", ...).
  std::string active_isa;      // ISA the dispatch actually selected.
  int lanes = 1;               // Double lanes of the active table.
  bool enabled = true;         // false when FEMUX_SIMD forced scalar.
  std::string env;             // Raw FEMUX_SIMD value ("" = unset).
};
SimdCaps GetSimdCaps();

// Overrides the active table for tests/benches ("scalar", "sse2", "avx2",
// or "" to restore the environment-driven default). Returns false (and
// leaves the dispatch unchanged) when the requested ISA is not compiled in
// or not supported by this CPU. Not thread-safe against concurrent kernel
// calls; call from single-threaded test setup only.
bool ForceIsaForTest(const std::string& isa);

}  // namespace simd
}  // namespace femux

#endif  // SRC_STATS_SIMD_H_
