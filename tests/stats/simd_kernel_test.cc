// Randomized scalar-vs-SIMD parity for every kernel in the SIMD layer
// (DESIGN.md §12). Each test sweeps every vector table compiled in and
// supported on this CPU (AVX2, AVX-512) against the scalar reference and
// demands bit-identical output (byte compare), per the KernelTable
// contract — the one exception is dot_unordered, whose contract is
// tolerance-based.
// Inputs deliberately cover tail lengths 1..4*lanes around the lane
// boundary at the widest table's lanes (past a whole 9-group block for the
// SES/Holt sweeps, past three 2-group blocks, a one-group block and a
// scalar tail for the sliding-DFT slides), denormals and negative zeros,
// and unaligned (off-by-one element) buffer offsets, which is where
// lane-tail bugs live.
#include "src/stats/simd.h"

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace femux {
namespace {

// Deterministic xorshift so the inputs are stable across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ? seed : 1) {}
  std::uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  double Uniform() {
    return static_cast<double>(Next() % 1000000) / 1000000.0;
  }
  // Mostly ordinary magnitudes, salted with the awkward encodings the
  // parity contract must survive: negative zero and denormals.
  double Value() {
    const std::uint64_t pick = Next() % 16;
    if (pick == 0) {
      return -0.0;
    }
    if (pick == 1) {
      return 5e-324;  // Smallest positive denormal.
    }
    if (pick == 2) {
      return -1e-310;
    }
    return 2.0 * Uniform() - 1.0;
  }

 private:
  std::uint64_t state_;
};

std::vector<double> RandomDoubles(std::size_t n, Rng* rng) {
  std::vector<double> out(n);
  for (double& v : out) {
    v = rng->Value();
  }
  return out;
}

std::vector<std::complex<double>> RandomComplex(std::size_t n, Rng* rng) {
  std::vector<std::complex<double>> out(n);
  for (auto& v : out) {
    v = {rng->Value(), rng->Value()};
  }
  return out;
}

void ExpectBitEqual(const double* a, const double* b, std::size_t n,
                    const char* isa, std::size_t case_id) {
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "isa=" << isa << " case=" << case_id << " index=" << i
        << " scalar=" << a[i] << " simd=" << b[i];
  }
}

void ExpectBitEqual(const std::complex<double>* a,
                    const std::complex<double>* b, std::size_t n,
                    const char* isa, std::size_t case_id) {
  ExpectBitEqual(reinterpret_cast<const double*>(a),
                 reinterpret_cast<const double*>(b), 2 * n, isa, case_id);
}

// Every non-scalar table available on this machine. Empty on hardware
// without AVX2 — the tests then pass vacuously, which is correct: there is
// no vector path to diverge.
std::vector<const simd::KernelTable*> VectorTables() {
  std::vector<const simd::KernelTable*> out;
  for (const char* isa : {"avx2", "avx512"}) {
    if (simd::ForceIsaForTest(isa)) {
      out.push_back(&simd::ActiveTable());
    }
  }
  simd::ForceIsaForTest("");
  return out;
}

// Max lanes across compiled tables; sizes sweep 1..4*lanes (+ a margin) so
// every vector/tail split is hit for every table.
int MaxLanes() {
  int lanes = 1;
  for (const simd::KernelTable* t : VectorTables()) {
    lanes = std::max(lanes, t->lanes);
  }
  return lanes;
}

TEST(SimdKernelTest, ButterflyStageMatchesScalarBitwise) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(0x5eed + table->lanes);
    for (std::size_t n : {2u, 4u, 8u, 16u, 64u, 256u}) {
      for (std::size_t len = 2; len <= n; len <<= 1) {
        // +1 element so both views can sit one element off alignment.
        const auto base = RandomComplex(n + 1, &rng);
        const auto tw = RandomComplex(len / 2 + 1, &rng);
        auto a = base;
        auto b = base;
        scalar.butterfly_stage(a.data() + 1, tw.data() + 1, n, len);
        table->butterfly_stage(b.data() + 1, tw.data() + 1, n, len);
        ExpectBitEqual(a.data(), b.data(), n + 1, table->isa, n * 1000 + len);
      }
    }
  }
}

TEST(SimdKernelTest, ComplexPointwiseKernelsMatchScalarBitwise) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  const std::size_t max_n = 4 * static_cast<std::size_t>(MaxLanes()) + 3;
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(0xc0ffee + table->lanes);
    for (std::size_t n = 1; n <= max_n; ++n) {
      const auto x = RandomComplex(n + 1, &rng);
      const auto y = RandomComplex(n + 1, &rng);
      const auto reals = RandomDoubles(n + 1, &rng);
      const double divisor = 1.0 + rng.Uniform() * 63.0;

      auto a = x;
      auto b = x;
      scalar.cmul_inplace(a.data() + 1, y.data() + 1, n);
      table->cmul_inplace(b.data() + 1, y.data() + 1, n);
      ExpectBitEqual(a.data(), b.data(), n + 1, table->isa, n);

      std::vector<std::complex<double>> out_a(n + 1), out_b(n + 1);
      scalar.cmul_to(out_a.data() + 1, x.data() + 1, y.data() + 1, n);
      table->cmul_to(out_b.data() + 1, x.data() + 1, y.data() + 1, n);
      ExpectBitEqual(out_a.data() + 1, out_b.data() + 1, n, table->isa, n);

      scalar.cdiv_mul_to(out_a.data() + 1, x.data() + 1, divisor,
                         y.data() + 1, n);
      table->cdiv_mul_to(out_b.data() + 1, x.data() + 1, divisor,
                         y.data() + 1, n);
      ExpectBitEqual(out_a.data() + 1, out_b.data() + 1, n, table->isa, n);

      scalar.real_cmul_to(out_a.data() + 1, reals.data() + 1, y.data() + 1, n);
      table->real_cmul_to(out_b.data() + 1, reals.data() + 1, y.data() + 1, n);
      ExpectBitEqual(out_a.data() + 1, out_b.data() + 1, n, table->isa, n);
    }
  }
}

// The vector slide kernels run up to 2 lane groups side by side; sweep n
// from 0 past three whole blocks plus a partial group, so every block
// size and scalar tail runs.
constexpr std::size_t kSlideBlockGroups = 2;

TEST(SimdKernelTest, SlideUpdateMatchesScalarBitwise) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  const std::size_t lanes = static_cast<std::size_t>(MaxLanes());
  const std::size_t max_n = 3 * kSlideBlockGroups * lanes + lanes + 1;
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(0x511de + table->lanes);
    for (std::size_t n = 0; n <= max_n; ++n) {
      for (const std::size_t slides : {0u, 1u, 2u, 5u, 32u}) {
        const auto bins = RandomComplex(n + 1, &rng);
        const auto tw = RandomComplex(n + 1, &rng);
        const auto deltas = RandomDoubles(slides + 1, &rng);
        auto a = bins;
        auto b = bins;
        scalar.slide_update(a.data() + 1, deltas.data() + 1, slides,
                            tw.data() + 1, n);
        table->slide_update(b.data() + 1, deltas.data() + 1, slides,
                            tw.data() + 1, n);
        ExpectBitEqual(a.data(), b.data(), n + 1, table->isa,
                       n * 100 + slides);
      }
    }
  }
}

// One call with S slides equals S one-slide calls, on every table.
TEST(SimdKernelTest, BatchedSlidesEqualOneSlideCalls) {
  std::vector<const simd::KernelTable*> tables = VectorTables();
  tables.push_back(&simd::ScalarTable());
  const std::size_t n = 3 * kSlideBlockGroups * static_cast<std::size_t>(MaxLanes()) + 3;
  for (const simd::KernelTable* table : tables) {
    Rng rng(0xba7c4 + table->lanes);
    for (const std::size_t slides : {1u, 2u, 5u, 32u}) {
      const auto bins = RandomComplex(n, &rng);
      const auto tw = RandomComplex(n, &rng);
      const auto deltas = RandomDoubles(slides, &rng);
      auto batched = bins;
      auto stepped = bins;
      table->slide_update(batched.data(), deltas.data(), slides, tw.data(), n);
      for (std::size_t s = 0; s < slides; ++s) {
        table->slide_update(stepped.data(), deltas.data() + s, 1, tw.data(), n);
      }
      ExpectBitEqual(stepped.data(), batched.data(), n, table->isa, slides);
    }
  }
}

// The SES/Holt sweeps advance up to 9 vector groups per block; sweep g
// past one full block so every block size and padded tail group runs.
constexpr std::size_t kSweepBlockGroups = 9;

std::size_t MaxSweepGrid() {
  return (kSweepBlockGroups + 1) * static_cast<std::size_t>(MaxLanes()) + 3;
}

TEST(SimdKernelTest, SesSweepMatchesScalarBitwise) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  const std::size_t max_g = MaxSweepGrid();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(0x5e5 + table->lanes);
    for (std::size_t g = 1; g <= max_g; ++g) {
      const std::size_t n = 2 + rng.Next() % 60;
      const auto y = RandomDoubles(n + 1, &rng);
      auto alphas = RandomDoubles(g + 1, &rng);
      std::vector<double> levels_a(g), sses_a(g), levels_b(g), sses_b(g);
      scalar.ses_sweep(y.data() + 1, n, alphas.data() + 1, g, levels_a.data(),
                       sses_a.data());
      table->ses_sweep(y.data() + 1, n, alphas.data() + 1, g, levels_b.data(),
                       sses_b.data());
      ExpectBitEqual(levels_a.data(), levels_b.data(), g, table->isa, g);
      ExpectBitEqual(sses_a.data(), sses_b.data(), g, table->isa, g);
    }
  }
}

TEST(SimdKernelTest, HoltSweepMatchesScalarBitwise) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  const std::size_t max_g = MaxSweepGrid();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(0x401 + table->lanes);
    for (std::size_t g = 1; g <= max_g; ++g) {
      const std::size_t n = 2 + rng.Next() % 60;
      const auto y = RandomDoubles(n + 1, &rng);
      const auto alphas = RandomDoubles(g + 1, &rng);
      const auto alpha_betas = RandomDoubles(g + 1, &rng);
      std::vector<double> levels_a(g), trends_a(g), sses_a(g);
      std::vector<double> levels_b(g), trends_b(g), sses_b(g);
      scalar.holt_sweep(y.data() + 1, n, alphas.data() + 1,
                        alpha_betas.data() + 1, g, levels_a.data(),
                        trends_a.data(), sses_a.data());
      table->holt_sweep(y.data() + 1, n, alphas.data() + 1,
                        alpha_betas.data() + 1, g, levels_b.data(),
                        trends_b.data(), sses_b.data());
      ExpectBitEqual(levels_a.data(), levels_b.data(), g, table->isa, g);
      ExpectBitEqual(trends_a.data(), trends_b.data(), g, table->isa, g);
      ExpectBitEqual(sses_a.data(), sses_b.data(), g, table->isa, g);
    }
  }
}

// The production grids (smoothing.cc): 9 SES alphas, and Holt's 36
// (alpha, alpha * beta) points flattened alpha-major, over window lengths
// from the degenerate to a day.
TEST(SimdKernelTest, SweepsMatchScalarOnProductionGrids) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  const std::vector<double> alphas = {0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9};
  std::vector<double> holt_alphas;
  std::vector<double> holt_alpha_betas;
  for (const double alpha : alphas) {
    for (const double beta : {0.05, 0.1, 0.3, 0.5}) {
      holt_alphas.push_back(alpha);
      holt_alpha_betas.push_back(alpha * beta);
    }
  }
  const std::size_t g = holt_alphas.size();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(0x6a1d + table->lanes);
    for (const std::size_t n : {1u, 2u, 3u, 64u, 120u, 2880u}) {
      const auto y = RandomDoubles(n, &rng);
      std::vector<double> levels_a(9), sses_a(9), levels_b(9), sses_b(9);
      scalar.ses_sweep(y.data(), n, alphas.data(), 9, levels_a.data(),
                       sses_a.data());
      table->ses_sweep(y.data(), n, alphas.data(), 9, levels_b.data(),
                       sses_b.data());
      ExpectBitEqual(levels_a.data(), levels_b.data(), 9, table->isa, n);
      ExpectBitEqual(sses_a.data(), sses_b.data(), 9, table->isa, n);

      std::vector<double> hl_a(g), ht_a(g), hs_a(g), hl_b(g), ht_b(g), hs_b(g);
      scalar.holt_sweep(y.data(), n, holt_alphas.data(),
                        holt_alpha_betas.data(), g, hl_a.data(), ht_a.data(),
                        hs_a.data());
      table->holt_sweep(y.data(), n, holt_alphas.data(),
                        holt_alpha_betas.data(), g, hl_b.data(), ht_b.data(),
                        hs_b.data());
      ExpectBitEqual(hl_a.data(), hl_b.data(), g, table->isa, n);
      ExpectBitEqual(ht_a.data(), ht_b.data(), g, table->isa, n);
      ExpectBitEqual(hs_a.data(), hs_b.data(), g, table->isa, n);
    }
  }
}

TEST(SimdKernelTest, BdsCountWithinMatchesScalar) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  const std::size_t max_count = 4 * static_cast<std::size_t>(MaxLanes()) + 3;
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(0xbd5 + table->lanes);
    for (std::size_t count = 0; count <= max_count; ++count) {
      for (std::size_t dimension : {1u, 2u, 3u, 5u}) {
        const std::size_t series_len = 64 + dimension;
        std::vector<double> series(series_len);
        for (double& v : series) {
          // Coarse quantization so sup-norm hits and misses both occur.
          v = static_cast<double>(rng.Next() % 8) / 8.0;
        }
        const std::size_t points = series_len - dimension;
        std::vector<std::uint32_t> idx(count + 1);
        for (auto& v : idx) {
          v = static_cast<std::uint32_t>(rng.Next() % points);
        }
        const std::size_t i = rng.Next() % points;
        const double epsilon = 0.2;
        const std::uint64_t a = scalar.bds_count_within(
            series.data(), idx.data() + 1, count, i, dimension, epsilon);
        const std::uint64_t b = table->bds_count_within(
            series.data(), idx.data() + 1, count, i, dimension, epsilon);
        EXPECT_EQ(a, b) << "isa=" << table->isa << " count=" << count
                        << " dim=" << dimension;
      }
    }
  }
}

TEST(SimdKernelTest, KmeansDistancesMatchesScalarBitwise) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  const std::size_t max_k = 4 * static_cast<std::size_t>(MaxLanes()) + 3;
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(0x7e57 + table->lanes);
    for (std::size_t k = 1; k <= max_k; ++k) {
      for (std::size_t dims : {1u, 2u, 7u}) {
        const auto point = RandomDoubles(dims + 1, &rng);
        const auto soa = RandomDoubles(dims * k + 1, &rng);
        std::vector<double> out_a(k), out_b(k);
        scalar.kmeans_distances(point.data() + 1, dims, soa.data() + 1, k, k,
                                out_a.data());
        table->kmeans_distances(point.data() + 1, dims, soa.data() + 1, k, k,
                                out_b.data());
        ExpectBitEqual(out_a.data(), out_b.data(), k, table->isa,
                       k * 100 + dims);
      }
    }
  }
}

TEST(SimdKernelTest, GemvColMajorMatchesScalarBitwise) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  const std::size_t max_rows = 4 * static_cast<std::size_t>(MaxLanes()) + 3;
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(0x6e3 + table->lanes);
    for (std::size_t rows = 1; rows <= max_rows; ++rows) {
      for (std::size_t cols : {1u, 2u, 5u, 16u}) {
        // Stride > rows exercises the padded-layout case the LSTM's
        // column-major weight copy uses.
        for (std::size_t stride : {rows, rows + 3}) {
          const auto m = RandomDoubles(stride * cols + 1, &rng);
          const auto v = RandomDoubles(cols + 1, &rng);
          const auto out0 = RandomDoubles(rows + 1, &rng);  // Accumulator seed.
          auto out_a = out0;
          auto out_b = out0;
          scalar.gemv_colmajor(m.data() + 1, rows, cols, stride, v.data() + 1,
                               out_a.data() + 1);
          table->gemv_colmajor(m.data() + 1, rows, cols, stride, v.data() + 1,
                               out_b.data() + 1);
          ExpectBitEqual(out_a.data(), out_b.data(), rows + 1, table->isa,
                         rows * 1000 + cols * 10 + (stride == rows ? 0 : 1));
        }
      }
    }
  }
}

TEST(SimdKernelTest, AxpyMatchesScalarBitwise) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  const std::size_t max_n = 4 * static_cast<std::size_t>(MaxLanes()) + 3;
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(0xa417 + table->lanes);
    for (std::size_t n = 1; n <= max_n; ++n) {
      const auto x = RandomDoubles(n + 1, &rng);
      const auto y0 = RandomDoubles(n + 1, &rng);
      const double a = rng.Value();
      auto ya = y0;
      auto yb = y0;
      scalar.axpy(ya.data() + 1, a, x.data() + 1, n);
      table->axpy(yb.data() + 1, a, x.data() + 1, n);
      ExpectBitEqual(ya.data(), yb.data(), n + 1, table->isa, n);
    }
  }
}

TEST(SimdKernelTest, DotUnorderedMatchesScalarWithinTolerance) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  const std::size_t max_n = 16 * static_cast<std::size_t>(MaxLanes());
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(0xd07 + table->lanes);
    for (std::size_t n = 1; n <= max_n; ++n) {
      const auto x = RandomDoubles(n + 1, &rng);
      const auto y = RandomDoubles(n + 1, &rng);
      const double a = scalar.dot_unordered(x.data() + 1, y.data() + 1, n);
      const double b = table->dot_unordered(x.data() + 1, y.data() + 1, n);
      EXPECT_NEAR(a, b, 1e-9 * (1.0 + std::abs(a)))
          << "isa=" << table->isa << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, ForceIsaForTestRejectsUnknownAndRestores) {
  EXPECT_FALSE(simd::ForceIsaForTest("avx9000"));
  ASSERT_TRUE(simd::ForceIsaForTest("scalar"));
  EXPECT_STREQ(simd::ActiveTable().isa, "scalar");
  ASSERT_TRUE(simd::ForceIsaForTest(""));
  const simd::SimdCaps caps = simd::GetSimdCaps();
  EXPECT_STREQ(simd::ActiveTable().isa, caps.active_isa.c_str());
  EXPECT_EQ(simd::ActiveTable().lanes, caps.lanes);
}

TEST(SimdKernelTest, CapsReportConsistentDispatch) {
  const simd::SimdCaps caps = simd::GetSimdCaps();
  EXPECT_FALSE(caps.detected_isa.empty());
  EXPECT_GE(caps.lanes, 1);
  if (!caps.enabled) {
    EXPECT_EQ(caps.active_isa, "scalar");
    EXPECT_EQ(caps.lanes, 1);
  }
  // The active table never exceeds what the CPU reports.
  if (caps.detected_isa == "scalar") {
    EXPECT_EQ(caps.active_isa, "scalar");
  }
  if (caps.detected_isa == "avx2") {
    EXPECT_NE(caps.active_isa, "avx512");
  }
  // Where the 8-lane table runs, the parity sweeps loop over it and size
  // their inputs for 8 lanes.
  if (simd::ForceIsaForTest("avx512")) {
    EXPECT_EQ(MaxLanes(), 8);
  }
  simd::ForceIsaForTest("");
}

// FEMUX_SIMD names a table; "off" forces scalar, and any value that names
// no usable table, such as the retired "sse2", picks the widest one.
TEST(SimdKernelTest, EnvSelectsTablesAndRetiredIsasPickTheWidest) {
  // EXPECT only, so the variable and the dispatch are always restored.
  const char* raw = std::getenv("FEMUX_SIMD");
  const bool was_set = raw != nullptr;
  const std::string saved = was_set ? raw : "";
  setenv("FEMUX_SIMD", "", 1);
  simd::ForceIsaForTest("");
  const std::string widest = simd::ActiveTable().isa;
  for (const char* value : {"sse2", "avx9000", "auto"}) {
    setenv("FEMUX_SIMD", value, 1);
    simd::ForceIsaForTest("");
    EXPECT_EQ(simd::ActiveTable().isa, widest) << value;
  }
  setenv("FEMUX_SIMD", "off", 1);
  simd::ForceIsaForTest("");
  EXPECT_STREQ(simd::ActiveTable().isa, "scalar");
  for (const char* isa : {"avx2", "avx512"}) {
    if (!simd::ForceIsaForTest(isa)) {
      continue;  // Not compiled in / unsupported CPU.
    }
    setenv("FEMUX_SIMD", isa, 1);
    simd::ForceIsaForTest("");
    EXPECT_STREQ(simd::ActiveTable().isa, isa);
  }
  if (was_set) {
    setenv("FEMUX_SIMD", saved.c_str(), 1);
  } else {
    unsetenv("FEMUX_SIMD");
  }
  simd::ForceIsaForTest("");
}

}  // namespace
}  // namespace femux
