#include "src/stats/fft.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <numbers>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace femux {
namespace {

std::vector<double> Sinusoid(std::size_t n, double cycles, double amplitude,
                             double offset) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = offset + amplitude * std::sin(2.0 * std::numbers::pi * cycles *
                                         static_cast<double>(i) / static_cast<double>(n));
  }
  return v;
}

TEST(FftTest, DcComponentOfConstantSignal) {
  const std::vector<double> x(64, 5.0);
  const auto spectrum = FftReal(x);
  EXPECT_NEAR(spectrum[0].real(), 5.0 * 64, 1e-9);
  for (std::size_t bin = 1; bin < 64; ++bin) {
    EXPECT_NEAR(std::abs(spectrum[bin]), 0.0, 1e-9);
  }
}

TEST(TopHarmonicsTest, FindsDominantFrequency) {
  const auto x = Sinusoid(128, 4.0, 2.0, 10.0);
  const auto harmonics = TopHarmonics(x, 2);
  ASSERT_EQ(harmonics.size(), 2u);
  // DC (offset 10) has the largest amplitude; bin 4 next with amplitude 2.
  EXPECT_EQ(harmonics[0].bin, 0u);
  EXPECT_NEAR(harmonics[0].amplitude, 10.0, 1e-9);
  EXPECT_EQ(harmonics[1].bin, 4u);
  EXPECT_NEAR(harmonics[1].amplitude, 2.0, 1e-9);
}

TEST(TopHarmonicsTest, ReconstructionExtrapolatesPeriodicSignal) {
  const std::size_t n = 120;
  const auto x = Sinusoid(n, 5.0, 3.0, 7.0);
  const auto harmonics = TopHarmonics(x, 5);
  // The harmonic model evaluated beyond the window must track the periodic
  // extension of the signal (period divides the window length).
  for (std::size_t t = n; t < n + 24; ++t) {
    const double expected = 7.0 + 3.0 * std::sin(2.0 * std::numbers::pi * 5.0 *
                                                 static_cast<double>(t) /
                                                 static_cast<double>(n));
    EXPECT_NEAR(EvaluateHarmonics(harmonics, static_cast<double>(t), n), expected, 0.05);
  }
}

TEST(SpectralConcentrationTest, PeriodicSignalNearOne) {
  const auto x = Sinusoid(504, 6.0, 1.0, 2.0);
  EXPECT_GT(SpectralConcentration(x, 10), 0.99);
}

TEST(SpectralConcentrationTest, WhiteNoiseLow) {
  std::vector<double> x(504);
  unsigned state = 12345u;
  for (double& v : x) {
    state = state * 1664525u + 1013904223u;
    v = static_cast<double>(state % 1000) / 1000.0;
  }
  // Top 10 of ~252 bins captures only a modest share of white-noise energy.
  EXPECT_LT(SpectralConcentration(x, 10), 0.4);
}

TEST(SpectralConcentrationTest, DegenerateInputsReturnZero) {
  EXPECT_DOUBLE_EQ(SpectralConcentration(std::vector<double>{}, 10), 0.0);
  EXPECT_DOUBLE_EQ(SpectralConcentration(std::vector<double>(504, 1.0), 10), 0.0);
}

TEST(TopHarmonicsTest, TiedAmplitudesBreakTowardLowerBin) {
  // A unit impulse has a perfectly flat spectrum: every interior bin ties at
  // amplitude 2/n (DC and Nyquist at 1/n). The selection must break the tie
  // deterministically toward the lower bin index — the pre-overhaul
  // std::sort left tied orderings unspecified.
  std::vector<double> x(16, 0.0);
  x[0] = 1.0;
  const auto harmonics = TopHarmonics(x, 4);
  ASSERT_EQ(harmonics.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(harmonics[i].bin, i + 1) << "rank " << i;
    EXPECT_DOUBLE_EQ(harmonics[i].amplitude, 2.0 / 16.0);
  }
}

TEST(TopHarmonicsTest, SelectionTieBreakAndExcludedAmplitude) {
  // Hand-built half-spectrum of a length-8 series: DC and bins 1-3 all
  // carry the same scaled magnitude (keys tie exactly), Nyquist is smaller.
  // The cut must keep the lowest-indexed tied bins and report the first
  // excluded amplitude.
  const std::vector<std::complex<double>> half = {
      {4.0, 0.0}, {0.0, 2.0}, {2.0, 0.0}, {0.0, -2.0}, {1.0, 0.0}};
  std::vector<Harmonic> out;
  const double excluded = SelectTopHarmonics(half, 8, 3, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].bin, 0u);
  EXPECT_EQ(out[1].bin, 1u);
  EXPECT_EQ(out[2].bin, 2u);
  // First excluded is bin 3: amplitude 2 * |(0,-2)| / 8.
  EXPECT_DOUBLE_EQ(excluded, 0.5);
}

TEST(SpectralConcentrationTest, TiedEnergiesAreDeterministic) {
  // Flat impulse spectrum: 8 interior energy bins all tie at 1.0, so the
  // top-3 share must come out exactly 3/8 no matter which tied bins the
  // partition visits.
  std::vector<double> x(16, 0.0);
  x[0] = 1.0;
  EXPECT_DOUBLE_EQ(SpectralConcentration(x, 3), 3.0 / 8.0);
}

// The documented selection by a full sort: energy (scale^2 * |X|^2)
// descending, ties toward the lower bin, a NaN energy below every number.
// Returns the first excluded amplitude, or -1.0 when k covers every bin
// (and, as SelectTopHarmonics does, when k is 0).
double OracleSelect(const std::vector<std::complex<double>>& half, std::size_t n,
                    std::size_t k, std::vector<Harmonic>* out) {
  out->clear();
  if (k == 0) {
    return -1.0;
  }
  const std::size_t count = n / 2 + 1;
  const auto scale_of = [n](std::size_t bin) {
    return (bin == 0 || (n % 2 == 0 && bin == n / 2)) ? 1.0 : 2.0;
  };
  std::vector<double> energy(count);
  for (std::size_t bin = 0; bin < count; ++bin) {
    const double scale = scale_of(bin);
    energy[bin] = scale * scale * std::norm(half[bin]);
  }
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const bool nan_a = std::isnan(energy[a]);
    const bool nan_b = std::isnan(energy[b]);
    if (nan_a != nan_b) {
      return nan_b;
    }
    if (!nan_a && energy[a] != energy[b]) {
      return energy[a] > energy[b];
    }
    return a < b;
  });
  const auto amplitude = [&](std::size_t bin) {
    return scale_of(bin) * std::abs(half[bin]) / static_cast<double>(n);
  };
  const std::size_t take = std::min(k, count);
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t bin = order[i];
    out->push_back({bin, static_cast<double>(bin) / static_cast<double>(n),
                    amplitude(bin), std::arg(half[bin])});
  }
  return take < count ? amplitude(order[take]) : -1.0;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void ExpectSelectionMatchesOracle(const std::vector<std::complex<double>>& half,
                                  std::size_t n, std::size_t k) {
  std::vector<Harmonic> got, want;
  const double excluded = SelectTopHarmonics(half, n, k, &got);
  const double want_excluded = OracleSelect(half, n, k, &want);
  ASSERT_EQ(got.size(), want.size()) << "n=" << n << " k=" << k;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].bin, want[i].bin) << "n=" << n << " k=" << k << " rank " << i;
    EXPECT_TRUE(SameBits(got[i].frequency, want[i].frequency) &&
                SameBits(got[i].amplitude, want[i].amplitude) &&
                SameBits(got[i].phase, want[i].phase))
        << "n=" << n << " k=" << k << " rank " << i;
  }
  EXPECT_TRUE(SameBits(excluded, want_excluded))
      << "n=" << n << " k=" << k << ": " << excluded << " vs " << want_excluded;
}

// Deterministic xorshift so the spectra are stable across platforms.
class SpectrumRng {
 public:
  explicit SpectrumRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  // One component, drawn from a few exact values (so bins tie exactly),
  // signed zeros, magnitudes whose energy overflows to inf, and ordinary
  // random values; NaN only when `nan` is set.
  double Component(bool nan) {
    const std::uint64_t pick = Next() % 12;
    switch (pick) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return 1.0;
      case 3: return -2.0;
      case 4: return 0.5;
      case 5: return 1e200;  // 1e400 overflows: the energy is inf.
      case 6: return -3e180;
      case 7: return nan ? std::numeric_limits<double>::quiet_NaN() : 2.0;
      default:
        return static_cast<double>(Next() % 2000000) / 1000000.0 - 1.0;
    }
  }

 private:
  std::uint64_t state_;
};

TEST(SelectTopHarmonicsOracleTest, MatchesAFullSortBitForBit) {
  SpectrumRng rng(0x70b4a2);
  for (std::size_t trial = 0; trial < 1200; ++trial) {
    // Odd and even lengths, from the degenerate to a few hundred samples.
    const std::size_t n = 1 + rng.Next() % 300;
    const std::size_t count = n / 2 + 1;
    std::vector<std::complex<double>> half(count);
    for (std::size_t bin = 0; bin < count; ++bin) {
      // Reusing an earlier bin, or its parts swapped, ties exactly.
      const std::uint64_t shape = rng.Next() % 8;
      if (bin > 0 && shape == 0) {
        half[bin] = half[rng.Next() % bin];
      } else if (bin > 0 && shape == 1) {
        const std::complex<double> other = half[rng.Next() % bin];
        half[bin] = {other.imag(), -other.real()};
      } else {
        half[bin] = {rng.Component(false), rng.Component(false)};
      }
    }
    for (const std::size_t k : {std::size_t{1}, std::size_t{10}, count - 1, count,
                                count + 3}) {
      ExpectSelectionMatchesOracle(half, n, k);
    }
  }
}

TEST(SelectTopHarmonicsOracleTest, NanBinsRankBelowEveryNumber) {
  // A NaN energy has no place in a numeric order; it ranks below every
  // number, and NaN bins among themselves by bin index.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::complex<double>> half = {
      {nan, 0.0}, {0.0, 0.0}, {1.0, nan}, {0.5, 0.0}, {nan, nan}, {2.0, 0.0}};
  std::vector<Harmonic> out;
  const double excluded = SelectTopHarmonics(half, 10, 4, &out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].bin, 5u);
  EXPECT_EQ(out[1].bin, 3u);
  EXPECT_EQ(out[2].bin, 1u);
  EXPECT_EQ(out[3].bin, 0u);
  EXPECT_TRUE(std::isnan(excluded));  // Bin 2, the next NaN bin.
  SelectTopHarmonics(half, 10, 6, &out);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[4].bin, 2u);
  EXPECT_EQ(out[5].bin, 4u);

  SpectrumRng rng(0x4a4e);
  for (std::size_t trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.Next() % 120;
    const std::size_t count = n / 2 + 1;
    std::vector<std::complex<double>> spectrum(count);
    for (auto& bin : spectrum) {
      bin = {rng.Component(true), rng.Component(true)};
    }
    for (const std::size_t k : {std::size_t{1}, std::size_t{10}, count - 1, count,
                                count + 3}) {
      ExpectSelectionMatchesOracle(spectrum, n, k);
    }
  }
}

// Property: Parseval's theorem holds across sizes (both FFT paths).
class ParsevalTest : public ::testing::TestWithParam<int> {};

TEST_P(ParsevalTest, EnergyPreserved) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  std::vector<double> x(n);
  unsigned state = static_cast<unsigned>(n) * 7919u;
  double time_energy = 0.0;
  for (double& v : x) {
    state = state * 1664525u + 1013904223u;
    v = static_cast<double>(state % 200) / 100.0 - 1.0;
    time_energy += v * v;
  }
  const auto spectrum = FftReal(x);
  double freq_energy = 0.0;
  for (const auto& c : spectrum) {
    freq_energy += std::norm(c);
  }
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-6 * time_energy + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParsevalTest,
                         ::testing::Values(8, 16, 60, 100, 120, 128, 504, 977));

}  // namespace
}  // namespace femux
