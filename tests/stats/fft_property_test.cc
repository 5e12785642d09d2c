// Property tests for the plan-cached spectral engine (DESIGN.md §9):
// the optimized transforms against the naive O(n^2) DftReference across
// every small length plus primes, powers of two, and their neighbors
// (2^k +/- 1 exercises the radix-2 and Bluestein paths side by side; a
// Bluestein transform runs the radix-2 inverse inside its convolution),
// Parseval's identity, and thread-safety of the shared plan cache.
#include "src/stats/fft.h"

#include <cmath>
#include <complex>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace femux {
namespace {

// Deterministic xorshift so the series are stable across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ? seed : 1) {}
  double Uniform() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<double>(state_ % 1000000) / 1000000.0;
  }

 private:
  std::uint64_t state_;
};

std::vector<std::complex<double>> RandomComplex(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<double>> out(n);
  for (auto& v : out) {
    v = {2.0 * rng.Uniform() - 1.0, 2.0 * rng.Uniform() - 1.0};
  }
  return out;
}

std::vector<double> RandomReal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) {
    v = 2.0 * rng.Uniform() - 1.0;
  }
  return out;
}

// Scale-relative bound: |a - b| / max(1, scale).
void ExpectSpectraNear(const std::vector<std::complex<double>>& a,
                       const std::vector<std::complex<double>>& b, double bound) {
  ASSERT_EQ(a.size(), b.size());
  double scale = 1.0;
  for (const auto& v : a) {
    scale = std::max(scale, std::abs(v));
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(std::abs(a[i] - b[i]) / scale, bound) << "bin " << i;
  }
}

std::vector<int> PropertyLengths() {
  std::vector<int> lengths;
  for (int n = 1; n <= 64; ++n) {
    lengths.push_back(n);
  }
  // Primes, powers of two, and 2^k +/- 1 (radix-2 next to Bluestein).
  for (int n : {67, 97, 101, 127, 128, 129, 251, 255, 256, 257, 509, 511, 512,
                513, 1023, 1024, 1025}) {
    lengths.push_back(n);
  }
  return lengths;
}

class FftPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FftPropertyTest, MatchesDftReference) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  const auto x = RandomComplex(n, 7919u * n + 3);
  const auto fast = Fft(x);
  const auto naive = DftReference(x);
  ExpectSpectraNear(fast, naive, 1e-9);
}

TEST_P(FftPropertyTest, RealMatchesDftReference) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  const auto x = RandomReal(n, 104729u * n + 1);
  std::vector<std::complex<double>> boxed(n);
  for (std::size_t i = 0; i < n; ++i) {
    boxed[i] = {x[i], 0.0};
  }
  const auto fast = FftReal(x);
  const auto naive = DftReference(boxed);
  ExpectSpectraNear(fast, naive, 1e-9);
}

TEST_P(FftPropertyTest, ParsevalIdentity) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  const auto x = RandomReal(n, 31u * n + 17);
  double time_energy = 0.0;
  for (double v : x) {
    time_energy += v * v;
  }
  const auto spectrum = FftReal(x);
  double freq_energy = 0.0;
  for (const auto& c : spectrum) {
    freq_energy += std::norm(c);
  }
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-9 * (time_energy + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftPropertyTest,
                         ::testing::ValuesIn(PropertyLengths()));

// Odd lengths cannot use the packed half-length real transform (pairing
// adjacent samples needs an even count; see FftPlan::RealSpectrum) and run
// a real-input Bluestein specialization instead: the chirp modulation reads
// the real series directly and the de-chirp only materializes the n/2+1
// returned bins (DESIGN.md §12). Pin the half-spectrum hot-path form
// (RealSpectrumInto) against the naive reference on exactly those lengths:
// odd primes, 2^k +/- 1, and odd neighbors of the production windows.
TEST(FftPropertyTest, RealSpectrumOddLengthsMatchReference) {
  for (const int length :
       {3, 5, 7, 9, 15, 21, 33, 63, 65, 101, 119, 121, 127, 129, 251, 257,
        503, 505, 511, 513, 1023, 1025, 1439, 1441}) {
    const std::size_t n = static_cast<std::size_t>(length);
    ASSERT_EQ(n % 2, 1u);
    const auto x = RandomReal(n, 2654435761u * n + 11);
    std::vector<std::complex<double>> boxed(n);
    for (std::size_t i = 0; i < n; ++i) {
      boxed[i] = {x[i], 0.0};
    }
    const auto naive = DftReference(boxed);
    std::vector<std::complex<double>> half;
    RealSpectrumInto(x, &half);
    ASSERT_EQ(half.size(), n / 2 + 1) << "n=" << n;
    const std::vector<std::complex<double>> naive_half(naive.begin(),
                                                       naive.begin() + n / 2 + 1);
    ExpectSpectraNear(half, naive_half, 1e-9);
  }
}

// The odd path must also agree with the even packed path on the mirrored
// full spectrum (conjugate-symmetry reconstruction in FftReal), so the two
// codepaths are interchangeable at their boundary lengths.
TEST(FftPropertyTest, RealSpectrumOddEvenBoundaryConsistency) {
  for (const int length : {119, 120, 121, 503, 504, 505, 2879, 2880, 2881}) {
    const std::size_t n = static_cast<std::size_t>(length);
    const auto x = RandomReal(n, 97u * n + 5);
    const auto full = FftReal(x);
    std::vector<std::complex<double>> half;
    RealSpectrumInto(x, &half);
    ASSERT_EQ(half.size(), n / 2 + 1) << "n=" << n;
    for (std::size_t k = 0; k < half.size(); ++k) {
      EXPECT_LE(std::abs(full[k] - half[k]), 1e-12) << "n=" << n << " bin " << k;
    }
    // DC bin of a real series is the plain sum — an absolute anchor that
    // holds on both codepaths.
    double sum = 0.0;
    for (double v : x) {
      sum += v;
    }
    EXPECT_NEAR(half[0].real(), sum, 1e-9 * (std::abs(sum) + 1.0)) << "n=" << n;
    EXPECT_NEAR(half[0].imag(), 0.0, 1e-9) << "n=" << n;
  }
}

TEST(FftCacheStatsTest, LookupAccountingIsExact) {
  // The plan cache is a process-wide singleton, so assert on deltas. A
  // fresh odd length not used anywhere else in this binary guarantees the
  // first lookup is a miss and the second a hit.
  constexpr std::size_t kFreshLength = 1931;
  const FftCacheStats s0 = GetFftCacheStats();
  const auto first = GetFftPlan(kFreshLength);
  ASSERT_NE(first, nullptr);
  const FftCacheStats s1 = GetFftCacheStats();
  // Building a Bluestein plan recursively fetches sub-plans, so the miss
  // delta is >= 1 and every lookup lands in exactly one counter.
  EXPECT_GE(s1.misses, s0.misses + 1);
  EXPECT_GE(s1.hits, s0.hits);
  EXPECT_GE(s1.entries, s0.entries + 1);
  EXPECT_GT(s1.table_bytes, 0u);

  const auto second = GetFftPlan(kFreshLength);
  EXPECT_EQ(second.get(), first.get());
  const FftCacheStats s2 = GetFftCacheStats();
  EXPECT_EQ(s2.hits, s1.hits + 1);
  EXPECT_EQ(s2.misses, s1.misses);
  EXPECT_EQ(s2.entries, s1.entries);
}

TEST(FftCacheStatsTest, EvictionAccountingUnderTinyBudget) {
  // Shrink the budget to one byte: every insert must evict down to a
  // single resident plan (the one just requested is never evicted), and
  // each drop lands in the evictions counter.
  const std::size_t previous = SetFftCacheBudget(1);
  const FftCacheStats before = GetFftCacheStats();
  const auto a = GetFftPlan(997);   // Prime: Bluestein + pow2 sub-plans.
  const auto b = GetFftPlan(1009);  // Distinct prime: evicts the first chain.
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const FftCacheStats after = GetFftCacheStats();
  EXPECT_EQ(after.entries, 1u);
  // Both request chains inserted at least one plan each; all but the last
  // survivor were evicted.
  EXPECT_GE(after.evictions, before.evictions + 2);
  // The retained shared_ptrs stay valid after eviction.
  EXPECT_EQ(a->length(), 997u);
  EXPECT_EQ(b->length(), 1009u);
  SetFftCacheBudget(previous);
  // Monotonic: restoring the budget resets no counter.
  const FftCacheStats restored = GetFftCacheStats();
  EXPECT_GE(restored.hits, after.hits);
  EXPECT_GE(restored.misses, after.misses);
  EXPECT_GE(restored.evictions, after.evictions);
}

TEST(FftCacheStatsTest, CountersAtomicUnderConcurrentHammer) {
  const FftCacheStats s0 = GetFftCacheStats();
  const std::vector<std::size_t> lengths = {60, 64, 100, 120, 128, 240, 97, 504};
  constexpr int kThreads = 8;
  constexpr int kIterations = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &lengths] {
      for (int iter = 0; iter < kIterations; ++iter) {
        for (const std::size_t n : lengths) {
          const auto x = RandomReal(n, 2000u * t + iter);
          (void)SpectralConcentration(x, 10);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const FftCacheStats s1 = GetFftCacheStats();
  // Every SpectralConcentration resolves at least one plan lookup; none of
  // the increments may be lost under contention.
  EXPECT_GE(s1.hits + s1.misses,
            s0.hits + s0.misses +
                static_cast<std::uint64_t>(kThreads * kIterations) * lengths.size());
  EXPECT_GE(s1.hits, s0.hits);
  EXPECT_GE(s1.misses, s0.misses);
  EXPECT_GE(s1.evictions, s0.evictions);
}

TEST(FftPropertyTest, PlanCacheIsThreadSafe) {
  // Hammer the shared plan cache from several threads across a mix of
  // lengths (including duplicates, so threads race on the same entries).
  const std::vector<std::size_t> lengths = {60, 64, 100, 120, 128, 240, 97, 504};
  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t, &lengths, &failures] {
      for (int iter = 0; iter < 20; ++iter) {
        for (const std::size_t n : lengths) {
          const auto x = RandomReal(n, 1000u * t + iter);
          const double c = SpectralConcentration(x, 10);
          if (!(c >= 0.0 && c <= 1.0 + 1e-12)) {
            ++failures[t];
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace femux
