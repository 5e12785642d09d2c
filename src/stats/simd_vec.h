// Internal fixed-width vector-of-double wrapper for the SIMD kernel layer.
//
// This header is only included by the per-ISA kernel translation units
// (simd_isa_avx2.cc is compiled with -mavx2, simd_isa_sse2.cc with the
// x86-64 baseline). The widest ISA enabled for the *including TU* selects
// the implementation: AVX2 → 4 lanes, SSE2 → 2 lanes. On targets with
// neither (non-x86), FEMUX_SIMD_VEC_WIDTH is 0 and the ISA TUs compile to
// empty stubs — the dispatcher then only offers the scalar table.
//
// Every operation maps to exactly one IEEE-754 double operation per lane
// (no FMA, no approximations), which is what makes the kernels written
// against VecD bit-identical to their scalar references. AddSub is the one
// composite: even lanes a - b, odd lanes a + b, implemented natively on
// AVX (vaddsubpd) and as a + (b with even-lane signs flipped) on SSE2 —
// identical results, since IEEE subtraction is exactly addition of the
// negation.
#ifndef SRC_STATS_SIMD_VEC_H_
#define SRC_STATS_SIMD_VEC_H_

#include <cstddef>
#include <cstdint>

// A TU may pre-define FEMUX_SIMD_VEC_WIDTH before including this header to
// pin a narrower width than its compile flags allow (the SSE2 TU does this
// so a global -mavx2 build cannot silently relabel it).
#ifndef FEMUX_SIMD_VEC_WIDTH
#if defined(__AVX2__)
#define FEMUX_SIMD_VEC_WIDTH 4
#elif defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__)
#define FEMUX_SIMD_VEC_WIDTH 2
#else
#define FEMUX_SIMD_VEC_WIDTH 0
#endif
#endif

#if FEMUX_SIMD_VEC_WIDTH > 0
#include <immintrin.h>

namespace femux {
namespace simd {
// Anonymous namespace: VecD must have internal linkage. The AVX2 and SSE2
// TUs define it with different layouts (__m256d vs __m128d), and its
// members and friend operators would otherwise mangle to identical symbols
// (Itanium mangling ignores return types) — in a non-inlined build the
// linker would keep a single comdat definition for both TUs, making one
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

#else  // FEMUX_SIMD_VEC_WIDTH == 2

struct VecD {
  __m128d v;
  static constexpr int kWidth = 2;

  static VecD Load(const double* p) { return {_mm_loadu_pd(p)}; }
  void Store(double* p) const { _mm_storeu_pd(p, v); }
  static VecD Broadcast(double x) { return {_mm_set1_pd(x)}; }
  static VecD Zero() { return {_mm_setzero_pd()}; }
  // One complex per vector at width 2: (p[0], p[0]).
  static VecD LoadPairDup(const double* p) { return {_mm_set1_pd(*p)}; }

  friend VecD operator+(VecD a, VecD b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {_mm_div_pd(a.v, b.v)}; }

  VecD DupEven() const {
    return {_mm_shuffle_pd(v, v, 0x0)};
  }
  VecD DupOdd() const {
    return {_mm_shuffle_pd(v, v, 0x3)};
  }
  VecD SwapPairs() const {
    return {_mm_shuffle_pd(v, v, 0x1)};
  }
  // SSE2 has no addsubpd (that is SSE3); a - b == a + (-b) exactly in
  // IEEE-754, so flip the sign of the even lane and add.
  static VecD AddSub(VecD a, VecD b) {
    const __m128d flip = _mm_set_pd(0.0, -0.0);
    return {_mm_add_pd(a.v, _mm_xor_pd(b.v, flip))};
  }
  // (a0, b0) and (a1, b1) (see the AVX2 overloads).
  static VecD UnpackLo(VecD a, VecD b) { return {_mm_unpacklo_pd(a.v, b.v)}; }
  static VecD UnpackHi(VecD a, VecD b) { return {_mm_unpackhi_pd(a.v, b.v)}; }

  VecD Abs() const { return {_mm_andnot_pd(_mm_set1_pd(-0.0), v)}; }
  int LeMask(VecD b) const {
    return _mm_movemask_pd(_mm_cmple_pd(v, b.v));
  }
  static VecD Gather(const double* base, const std::uint32_t* idx,
                     std::size_t offset) {
    return {_mm_set_pd(base[idx[1] + offset], base[idx[0] + offset])};
  }
};

#endif  // FEMUX_SIMD_VEC_WIDTH

}  // namespace
}  // namespace simd
}  // namespace femux

#endif  // FEMUX_SIMD_VEC_WIDTH > 0

#endif  // SRC_STATS_SIMD_VEC_H_
