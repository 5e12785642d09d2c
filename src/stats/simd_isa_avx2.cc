// AVX2 (4-lane) kernel table. This TU is the only one compiled with
// -mavx2 (see src/stats/CMakeLists.txt); when the compiler cannot target
// AVX2 it degrades to a stub that reports the table as unavailable, and
// the dispatcher in simd.cc never offers it.
#include "src/stats/simd.h"

#include "src/stats/simd_vec.h"

namespace femux {
namespace simd {
const KernelTable* Avx2Table();
}  // namespace simd
}  // namespace femux

#if defined(__AVX2__) && FEMUX_SIMD_VEC_WIDTH == 4

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
namespace avx2_impl {
#include "src/stats/simd_kernels.inc"
}  // namespace avx2_impl

const KernelTable* Avx2Table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.isa = "avx2";
    t.lanes = 4;
    t.butterfly_stage = &avx2_impl::ButterflyStage;
    t.cmul_inplace = &avx2_impl::CMulInplace;
    t.cmul_to = &avx2_impl::CMulTo;
    t.cdiv_mul_to = &avx2_impl::CDivMulTo;
    t.real_cmul_to = &avx2_impl::RealCMulTo;
    t.slide_update = &avx2_impl::SlideUpdate;
    t.ses_sweep = &avx2_impl::SesSweep;
    t.holt_sweep = &avx2_impl::HoltSweep;
    t.bds_count_within = &avx2_impl::BdsCountWithin;
    t.kmeans_distances = &avx2_impl::KmeansDistances;
    t.gemv_colmajor = &avx2_impl::GemvColMajor;
    t.axpy = &avx2_impl::Axpy;
    t.dot_unordered = &avx2_impl::DotUnordered;
    return t;
  }();
  return &table;
}

}  // namespace simd
}  // namespace femux

#else  // !__AVX2__

namespace femux {
namespace simd {
const KernelTable* Avx2Table() { return nullptr; }
}  // namespace simd
}  // namespace femux

#endif
