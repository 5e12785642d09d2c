// Bit golden for the FFT forecaster's serving path (DESIGN.md §9).
//
// tests/data/fft_rolling_golden.txt holds %a forecasts of RollingForecast
// for fft at refit intervals 1, 5, 20, 33 and 700 and windows 256 and
// 2,880, over two deterministic series with idle stretches and bursts.
// Each series runs more than three 512-slide rebuilds past the full
// window, so every refit interval meets the rebuild; refit 33 also reaches
// a full batch of 32 pending slides, and refit 700 a rebuild with slides
// pending. The maintained bins and the harmonic selection must keep every
// bit on every ISA (the FEMUX_SIMD=off pass runs this binary too).
//
// Regenerate after an intentional behaviour change:
//   FEMUX_UPDATE_GOLDEN=1 build/tests/forecast_fft_golden_test
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/forecast/fft_forecaster.h"
#include "src/forecast/forecaster.h"

namespace femux {
namespace {

const std::string kGoldenFile =
    std::string(FEMUX_TEST_DATA_DIR) + "/fft_rolling_golden.txt";

constexpr std::size_t kWarmup = 10;  // RollingForecast's default.
constexpr std::size_t kRebuildSlides = 512;
// Recorded: every kStride-th forecast, and every forecast from the last
// growth-phase refits through the first two full pending batches.
constexpr std::size_t kStride = 11;
constexpr std::size_t kDenseBefore = 8;
constexpr std::size_t kDenseAfter = 64;

// Deterministic xorshift demand, built from exact arithmetic only (no
// libm), so the series carry the same bits everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  double Uniform() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<double>(state_ % 1000000) / 1000000.0;
  }

 private:
  std::uint64_t state_;
};

// A triangle cycle of 144 samples with noise and bursts, cut by idle
// stretches of 211 samples.
std::vector<double> CyclicSeries(std::size_t n) {
  Rng rng(0x9E3779B97F4A7C15ull);
  std::vector<double> out(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double phase = static_cast<double>(t % 144);
    const double cycle = 4.0 + 3.0 * (phase < 72.0 ? phase : 144.0 - phase) / 72.0;
    const double noise = rng.Uniform();
    const bool burst = rng.Uniform() < 0.01;
    const bool idle = (t / 211) % 6 == 4;
    out[t] = idle ? 0.0 : cycle + noise + (burst ? 20.0 : 0.0);
  }
  return out;
}

// Mostly idle with sparse bursts, and a busy plateau every 300 samples.
std::vector<double> SparseSeries(std::size_t n) {
  Rng rng(0xD1B54A32D192ED03ull);
  std::vector<double> out(n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    const double draw = rng.Uniform();
    if ((t / 300) % 4 == 2) {
      out[t] = 12.0 + 2.0 * draw;
    } else if (draw < 0.15) {
      out[t] = 50.0 + 100.0 * rng.Uniform();
    }
  }
  return out;
}

struct GoldenRun {
  std::string key;
  std::vector<std::size_t> times;  // Recorded forecast indices.
  std::vector<std::string> values;  // %a of each.
};

std::string HexFloat(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

std::vector<GoldenRun> ComputeRuns() {
  std::vector<GoldenRun> runs;
  for (const char* series_name : {"cyclic", "sparse"}) {
    for (const std::size_t window : {256u, 2880u}) {
      const std::size_t length = window + 3 * kRebuildSlides + 128;
      const std::vector<double> series = std::string(series_name) == "cyclic"
                                             ? CyclicSeries(length)
                                             : SparseSeries(length);
      for (const std::size_t refit : {1u, 5u, 20u, 33u, 700u}) {
        FftForecaster forecaster(10, refit, window);
        const std::vector<double> forecasts =
            RollingForecast(forecaster, series, kDefaultHistoryMinutes, kWarmup);
        GoldenRun run;
        run.key = std::string(series_name) + " " + std::to_string(window) + " " +
                  std::to_string(refit);
        for (std::size_t t = kWarmup; t < forecasts.size(); ++t) {
          const bool dense = t + kDenseBefore >= window && t < window + kDenseAfter;
          if (dense || t % kStride == 0) {
            run.times.push_back(t);
            run.values.push_back(HexFloat(forecasts[t]));
          }
        }
        runs.push_back(std::move(run));
      }
    }
  }
  return runs;
}

bool UpdateGoldenRequested() {
  const char* env = std::getenv("FEMUX_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

// key -> the recorded %a tokens, in file order.
std::map<std::string, std::vector<std::string>> ReadGolden() {
  std::map<std::string, std::vector<std::string>> rows;
  std::ifstream in(kGoldenFile);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string series, window, refit, token;
    fields >> series >> window >> refit;
    std::vector<std::string>& values = rows[series + " " + window + " " + refit];
    while (fields >> token) {
      values.push_back(token);
    }
  }
  return rows;
}

TEST(FftGoldenTest, UpdateGolden) {
  if (!UpdateGoldenRequested()) {
    GTEST_SKIP() << "set FEMUX_UPDATE_GOLDEN=1 to regenerate the golden";
  }
  std::ofstream out(kGoldenFile);
  out << "# RollingForecast of fft (tests/forecast/fft_golden_test.cc).\n"
      << "# <series> <window> <refit interval>, then the %a forecast of every\n"
      << "# t >= " << kWarmup << " with t % " << kStride << " == 0 or window - "
      << kDenseBefore << " <= t < window + " << kDenseAfter << ", ascending.\n"
      << "# Regenerate: FEMUX_UPDATE_GOLDEN=1 forecast_fft_golden_test\n";
  for (const GoldenRun& run : ComputeRuns()) {
    out << run.key;
    for (const std::string& value : run.values) {
      out << " " << value;
    }
    out << "\n";
  }
  ASSERT_TRUE(out.good());
}

TEST(FftGoldenTest, RollingForecastsMatchTheGoldenBitForBit) {
  if (UpdateGoldenRequested()) {
    GTEST_SKIP() << "regenerating";
  }
  const auto golden = ReadGolden();
  const std::vector<GoldenRun> runs = ComputeRuns();
  ASSERT_EQ(golden.size(), runs.size()) << "missing or extra rows in " << kGoldenFile;
  for (const GoldenRun& run : runs) {
    const auto it = golden.find(run.key);
    ASSERT_NE(it, golden.end()) << "no golden row for " << run.key;
    ASSERT_EQ(it->second.size(), run.values.size()) << run.key;
    for (std::size_t i = 0; i < run.values.size(); ++i) {
      ASSERT_EQ(it->second[i], run.values[i])
          << run.key << " t=" << run.times[i] << " (first mismatch)";
    }
  }
}

// A Sync that does not extend the stream re-seeds it. At refit 20 up to 19
// slides sit pending between refits; whatever is pending at the jump must
// go, so from the jump on the stream forecasts exactly what a fresh stream
// restored from the same history forecasts.
TEST(FftGoldenTest, SyncJumpWithSlidesPendingReseedsLikeAFreshStream) {
  constexpr std::size_t kWindow = 256;
  constexpr std::size_t kSkip = 37;
  const std::vector<double> series = CyclicSeries(kWindow + 900);
  const std::span<const double> all(series);
  // One jump per phase of the refit cycle, so most land with slides pending.
  for (std::size_t jump = kWindow + 300; jump < kWindow + 321; ++jump) {
    SCOPED_TRACE(jump);
    FftForecaster forecaster(10, 20, kWindow);
    ForecastStream stream;
    stream.Bind(forecaster);
    for (std::size_t t = kWarmup; t < jump; ++t) {
      stream.Sync(all.first(t));
      stream.Forecast();
    }
    FftForecaster fresh_forecaster(10, 20, kWindow);
    ForecastStream fresh;
    fresh.Bind(fresh_forecaster);
    for (std::size_t t = jump + kSkip; t < jump + kSkip + 100; ++t) {
      stream.Sync(all.first(t));
      fresh.Sync(all.first(t));
      ASSERT_EQ(HexFloat(stream.Forecast()), HexFloat(fresh.Forecast()))
          << "t=" << t;
    }
  }
}

}  // namespace
}  // namespace femux
