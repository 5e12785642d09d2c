// Internal fixed-width vector-of-double wrapper for the SIMD kernel layer.
//
// This header is only included by the per-ISA kernel translation units,
// and each of them pins the width before including it: simd_isa_avx2.cc
// (compiled with -mavx2) defines FEMUX_SIMD_VEC_WIDTH 4, simd_isa_avx512.cc
// (compiled with -mavx512f) defines 8, so a global -march flag cannot
// silently widen a table. A TU whose compile flags lack its ISA (non-x86,
// or a compiler without the flag) defines 0 and compiles to an empty stub;
// the dispatcher then never offers that table.
//
// Every operation maps to exactly one IEEE-754 double operation per lane
// (no FMA, no approximations), which is what makes the kernels written
// against VecD bit-identical to their scalar references. AddSub is the one
// composite: even lanes a - b, odd lanes a + b, one vaddsubpd on AVX2 and,
// since AVX-512 has no 512-bit addsub, an add with the even lanes
// overwritten by a masked subtract at 8 lanes; either way each lane does
// one IEEE operation.
#ifndef SRC_STATS_SIMD_VEC_H_
#define SRC_STATS_SIMD_VEC_H_

#include <cstddef>
#include <cstdint>

#ifndef FEMUX_SIMD_VEC_WIDTH
#error "define FEMUX_SIMD_VEC_WIDTH (0, 4 or 8) before including simd_vec.h"
#endif

#if FEMUX_SIMD_VEC_WIDTH > 0
#include <immintrin.h>

namespace femux {
namespace simd {
// Anonymous namespace: VecD must have internal linkage. The AVX2 and
// AVX-512 TUs define it with different layouts (__m256d vs __m512d), and
// its members and friend operators would otherwise mangle to identical
// symbols (Itanium mangling ignores return types) — in a non-inlined build
// the linker would keep a single comdat definition for both TUs, making one
// ISA table silently execute the other ISA's code.
namespace {

#if FEMUX_SIMD_VEC_WIDTH == 4

struct VecD {
  __m256d v;
  static constexpr int kWidth = 4;

  static VecD Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }
  static VecD Broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static VecD Zero() { return {_mm256_setzero_pd()}; }
  // Load kWidth/2 doubles and duplicate each into an adjacent pair:
  // (p[0], p[0], p[1], p[1]) — a real factor lined up against interleaved
  // complex data.
  static VecD LoadPairDup(const double* p) {
    const __m256d lo = _mm256_castpd128_pd256(_mm_loadu_pd(p));
    return {_mm256_permute4x64_pd(lo, 0x50)};
  }

  friend VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }

  // (a0, a0, a2, a2) — duplicate the even (real) lanes of interleaved
  // complex data.
  VecD DupEven() const { return {_mm256_movedup_pd(v)}; }
  // (a1, a1, a3, a3) — duplicate the odd (imag) lanes.
  VecD DupOdd() const { return {_mm256_permute_pd(v, 0xF)}; }
  // (a1, a0, a3, a2) — swap each (re, im) pair.
  VecD SwapPairs() const { return {_mm256_permute_pd(v, 0x5)}; }
  // Even lanes a - b, odd lanes a + b.
  static VecD AddSub(VecD a, VecD b) { return {_mm256_addsub_pd(a.v, b.v)}; }
  // (a0, b0, a2, b2) and (a1, b1, a3, b3). On two vectors of interleaved
  // complex data they split out the real and the imaginary parts, in one
  // lane order for every split pair; on those (re, im) vectors they
  // interleave the bins again.
  static VecD UnpackLo(VecD a, VecD b) { return {_mm256_unpacklo_pd(a.v, b.v)}; }
  static VecD UnpackHi(VecD a, VecD b) { return {_mm256_unpackhi_pd(a.v, b.v)}; }

  VecD Abs() const {
    return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), v)};
  }
  // Lane bitmask of this <= b (1 bit per lane, bit i = lane i).
  int LeMask(VecD b) const {
    return _mm256_movemask_pd(_mm256_cmp_pd(v, b.v, _CMP_LE_OQ));
  }
  // Gather base[idx[lane] + offset] for 4 uint32 indices.
  static VecD Gather(const double* base, const std::uint32_t* idx,
                     std::size_t offset) {
    const __m128i lanes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    const __m128i shifted = _mm_add_epi32(
        lanes, _mm_set1_epi32(static_cast<int>(offset)));
    // The masked form with an all-ones mask is equivalent to the plain
    // gather but has a defined (zero) source operand, which keeps
    // -Wmaybe-uninitialized quiet under GCC.
    const __m256d ones_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return {_mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, shifted,
                                     ones_mask, 8)};
  }
};

#elif FEMUX_SIMD_VEC_WIDTH == 8

// AVX512F instructions only (no DQ/BW/VL), so the table runs on every
// AVX-512 CPU. The shuffles and the gather use their masked forms with an
// all-ones mask (the same instruction): GCC 12's plain forms read an
// undefined source, which trips -Wmaybe-uninitialized once inlined.
struct VecD {
  __m512d v;
  static constexpr int kWidth = 8;
  static constexpr __mmask8 kAll = 0xFF;

  static VecD Load(const double* p) { return {_mm512_loadu_pd(p)}; }
  void Store(double* p) const { _mm512_storeu_pd(p, v); }
  static VecD Broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static VecD Zero() { return {_mm512_setzero_pd()}; }
  // (p[0], p[0], p[1], p[1], p[2], p[2], p[3], p[3]); the masked load
  // reads only the 4 doubles it needs.
  static VecD LoadPairDup(const double* p) {
    const __m512i pairs = _mm512_set_epi64(3, 3, 2, 2, 1, 1, 0, 0);
    return {_mm512_maskz_permutexvar_pd(kAll, pairs,
                                        _mm512_maskz_loadu_pd(0x0F, p))};
  }

  friend VecD operator+(VecD a, VecD b) { return {_mm512_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm512_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm512_mul_pd(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {_mm512_div_pd(a.v, b.v)}; }

  // The pair shuffles work within each 128-bit lane, as at 4 lanes.
  VecD DupEven() const { return {_mm512_maskz_movedup_pd(kAll, v)}; }
  VecD DupOdd() const { return {_mm512_maskz_permute_pd(kAll, v, 0xFF)}; }
  VecD SwapPairs() const { return {_mm512_maskz_permute_pd(kAll, v, 0x55)}; }
  // Even lanes a - b (mask 0x55), odd lanes a + b.
  static VecD AddSub(VecD a, VecD b) {
    return {_mm512_mask_sub_pd(_mm512_add_pd(a.v, b.v), 0x55, a.v, b.v)};
  }
  // Within each 128-bit lane, as at 4 lanes: the split permutes the bins
  // and their twiddles in the same way, and the interleave undoes it.
  static VecD UnpackLo(VecD a, VecD b) {
    return {_mm512_maskz_unpacklo_pd(kAll, a.v, b.v)};
  }
  static VecD UnpackHi(VecD a, VecD b) {
    return {_mm512_maskz_unpackhi_pd(kAll, a.v, b.v)};
  }

  VecD Abs() const { return {_mm512_abs_pd(v)}; }
  // Lane bitmask of this <= b (bit i = lane i).
  int LeMask(VecD b) const {
    return _mm512_cmp_pd_mask(v, b.v, _CMP_LE_OQ);
  }
  // Gather base[idx[lane] + offset] for 8 uint32 indices.
  static VecD Gather(const double* base, const std::uint32_t* idx,
                     std::size_t offset) {
    const __m256i lanes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    const __m256i shifted = _mm256_add_epi32(
        lanes, _mm256_set1_epi32(static_cast<int>(offset)));
    return {_mm512_mask_i32gather_pd(_mm512_setzero_pd(), kAll, shifted,
                                     base, 8)};
  }
};

#else
#error "FEMUX_SIMD_VEC_WIDTH must be 0, 4 or 8"
#endif  // FEMUX_SIMD_VEC_WIDTH

}  // namespace
}  // namespace simd
}  // namespace femux

#endif  // FEMUX_SIMD_VEC_WIDTH > 0

#endif  // SRC_STATS_SIMD_VEC_H_
