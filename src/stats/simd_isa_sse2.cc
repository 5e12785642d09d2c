// SSE2 (2-lane) kernel table. SSE2 is part of the x86-64 baseline, so
// this TU needs no special compile flags; the width is pinned to 2 before
// including simd_vec.h so that a global -mavx2 build cannot silently turn
// the "sse2" table into AVX2 code. On non-x86 targets it compiles to a
// stub and the dispatcher only offers the scalar table.
#include "src/stats/simd.h"

#if defined(__x86_64__) || defined(_M_X64) || defined(__SSE2__)
#define FEMUX_SIMD_VEC_WIDTH 2
#endif
#include "src/stats/simd_vec.h"

namespace femux {
namespace simd {
const KernelTable* Sse2Table();
}  // namespace simd
}  // namespace femux

#if FEMUX_SIMD_VEC_WIDTH == 2

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace femux {
namespace simd {
namespace sse2_impl {
#include "src/stats/simd_kernels.inc"
}  // namespace sse2_impl

const KernelTable* Sse2Table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.isa = "sse2";
    t.lanes = 2;
    t.butterfly_stage = &sse2_impl::ButterflyStage;
    t.cmul_inplace = &sse2_impl::CMulInplace;
    t.cmul_to = &sse2_impl::CMulTo;
    t.cdiv_mul_to = &sse2_impl::CDivMulTo;
    t.real_cmul_to = &sse2_impl::RealCMulTo;
    t.slide_update = &sse2_impl::SlideUpdate;
    t.ses_sweep = &sse2_impl::SesSweep;
    t.holt_sweep = &sse2_impl::HoltSweep;
    t.bds_count_within = &sse2_impl::BdsCountWithin;
    t.kmeans_distances = &sse2_impl::KmeansDistances;
    t.gemv_colmajor = &sse2_impl::GemvColMajor;
    t.axpy = &sse2_impl::Axpy;
    t.dot_unordered = &sse2_impl::DotUnordered;
    return t;
  }();
  return &table;
}

}  // namespace simd
}  // namespace femux

#else  // non-x86

namespace femux {
namespace simd {
const KernelTable* Sse2Table() { return nullptr; }
}  // namespace simd
}  // namespace femux

#endif
