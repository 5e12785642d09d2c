// AVX-512 (8-lane) kernel table. This TU is the only one compiled with
// -mavx512f, and with -ffp-contract=off -fno-tree-loop-vectorize (see
// src/stats/CMakeLists.txt for why each is needed to keep the bits); it
// pins its width to 8. When the compiler cannot target AVX-512F it
// degrades to a stub that reports the table as unavailable, and the
// dispatcher in simd.cc never offers it.
#include "src/stats/simd.h"

#if defined(__AVX512F__)
#define FEMUX_SIMD_VEC_WIDTH 8
#else
#define FEMUX_SIMD_VEC_WIDTH 0
#endif
#include "src/stats/simd_vec.h"

namespace femux {
namespace simd {
const KernelTable* Avx512Table();
}  // namespace simd
}  // namespace femux

#if FEMUX_SIMD_VEC_WIDTH == 8

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
namespace avx512_impl {
#include "src/stats/simd_kernels.inc"
}  // namespace avx512_impl

const KernelTable* Avx512Table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.isa = "avx512";
    t.lanes = 8;
    t.butterfly_stage = &avx512_impl::ButterflyStage;
    t.cmul_inplace = &avx512_impl::CMulInplace;
    t.cmul_to = &avx512_impl::CMulTo;
    t.cdiv_mul_to = &avx512_impl::CDivMulTo;
    t.real_cmul_to = &avx512_impl::RealCMulTo;
    t.slide_update = &avx512_impl::SlideUpdate;
    t.ses_sweep = &avx512_impl::SesSweep;
    t.holt_sweep = &avx512_impl::HoltSweep;
    t.bds_count_within = &avx512_impl::BdsCountWithin;
    t.kmeans_distances = &avx512_impl::KmeansDistances;
    t.gemv_colmajor = &avx512_impl::GemvColMajor;
    t.axpy = &avx512_impl::Axpy;
    t.dot_unordered = &avx512_impl::DotUnordered;
    return t;
  }();
  return &table;
}

}  // namespace simd
}  // namespace femux

#else  // !__AVX512F__

namespace femux {
namespace simd {
const KernelTable* Avx512Table() { return nullptr; }
}  // namespace simd
}  // namespace femux

#endif
