// Per-kernel benchmark of the SIMD kernel layer (DESIGN.md §12).
//
// For every kernel in simd::KernelTable, times the scalar, AVX2 and
// AVX-512 tables side by side on identical inputs shaped like the calls
// the code makes: the stages of the 4,096-point convolution FFT and the
// Bluestein multiplies of a 2,880-sample window, sliding-DFT flushes of
// 1, 5 and 20 slides over its 1,441 bins (refit 1, the
// library's default refit 5, and the refit 20 of every FeMux model in
// perfbench and the benches), the SES and Holt grids over the 120-sample
// serving window, BDS windows, the trainer's 10-cluster K-means over the
// 4 default features, the linear_state and LSTM recurrences, and the OLS
// normal-equation accumulations of the feature extractor. Each time is the
// median of kRepeats repeats, with the tables' order rotated from repeat
// to repeat so drift hits each alike, and their min and max.
//
// Gates:
//   1. Parity. Every vector table's output must be byte-identical to the
//      scalar table's on the same inputs (the layer's contract), except
//      dot_unordered which is tolerance-checked at 1e-9 relative.
//   2. Speedup. When the active table has >= 2 lanes, at least two rows
//      must reach >= 1.5x over scalar (medians of the active table).
//      When only the scalar table is available (non-x86 hardware, or
//      FEMUX_SIMD=off), the gate records itself as skipped with the
//      detected ISA instead of passing vacuously.
//
// Usage: bench_simd_kernels [--smoke] [--json=PATH]
#include "bench/common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numbers>
#include <string>
#include <vector>

#include "src/core/features.h"
#include "src/forecast/forecaster.h"
#include "src/stats/simd.h"

namespace femux {
namespace {

constexpr int kRepeats = 7;

// Deterministic xorshift so runs are comparable across machines.
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

 private:
  std::uint64_t state_;
};

std::vector<double> RandomDoubles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) {
    v = 2.0 * rng.Uniform() - 1.0;
  }
  return out;
}

std::vector<std::complex<double>> RandomComplex(std::size_t n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<double>> out(n);
  for (auto& v : out) {
    v = {2.0 * rng.Uniform() - 1.0, 2.0 * rng.Uniform() - 1.0};
  }
  return out;
}

// The doubles of a complex buffer, for byte comparison.
std::vector<double> Flat(const std::vector<std::complex<double>>& v) {
  const double* p = reinterpret_cast<const double*>(v.data());
  return std::vector<double>(p, p + 2 * v.size());
}

// Defeats dead-code elimination across timing loops.
volatile double g_sink = 0.0;

// A table whose bodies are timed: "scalar", "avx2" or "avx512".
struct Body {
  const char* isa;
  const simd::KernelTable* table;
};

struct Timing {
  double median_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
};

struct KernelResult {
  std::string name;    // Row name.
  std::string kernel;  // The KernelTable entry it times.
  std::string shape;
  int calls = 0;                // Per repeat and body.
  std::vector<Timing> timings;  // One per body, in body order.
  bool parity_ok = true;
  bool bit_exact = true;  // false only for dot_unordered's tolerance check.
};

// Times `calls` runs of `run(table)` per body, kRepeats times, and checks
// every vector body's `out()` against the scalar body's after one run.
template <typename Run, typename Out>
KernelResult Measure(const std::vector<Body>& bodies, const std::string& name,
                     const std::string& kernel, const std::string& shape,
                     int calls, bool bit_exact, Run&& run, Out&& out) {
  KernelResult r;
  r.name = name;
  r.kernel = kernel;
  r.shape = shape;
  r.calls = calls;
  r.bit_exact = bit_exact;
  run(*bodies[0].table);
  const std::vector<double> reference = out();
  for (std::size_t b = 1; b < bodies.size(); ++b) {
    run(*bodies[b].table);
    const std::vector<double> got = out();
    if (bit_exact) {
      r.parity_ok = r.parity_ok && got.size() == reference.size() &&
                    std::memcmp(got.data(), reference.data(),
                                got.size() * sizeof(double)) == 0;
    } else {
      for (std::size_t i = 0; i < got.size(); ++i) {
        r.parity_ok = r.parity_ok && std::fabs(got[i] - reference[i]) <=
                                         1e-9 * (1.0 + std::fabs(reference[i]));
      }
    }
  }
  std::vector<std::vector<double>> samples(bodies.size());
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      const std::size_t b = (i + static_cast<std::size_t>(rep)) % bodies.size();
      const auto start = std::chrono::steady_clock::now();
      for (int c = 0; c < calls; ++c) {
        run(*bodies[b].table);
      }
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      samples[b].push_back(1e6 * seconds / calls);
    }
  }
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    r.timings.push_back({s[s.size() / 2], s.front(), s.back()});
  }
  return r;
}

int BodyIndex(const std::vector<Body>& bodies, const std::string& isa) {
  for (std::size_t b = 0; b < bodies.size(); ++b) {
    if (isa == bodies[b].isa) {
      return static_cast<int>(b);
    }
  }
  return -1;
}

}  // namespace
}  // namespace femux

int main(int argc, char** argv) {
  using namespace femux;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }

  const simd::SimdCaps caps = simd::GetSimdCaps();
  const simd::KernelTable& active = simd::ActiveTable();
  std::printf("simd kernels: detected=%s active=%s lanes=%d%s\n",
              caps.detected_isa.c_str(), caps.active_isa.c_str(), caps.lanes,
              caps.env.empty() ? "" : (" FEMUX_SIMD=" + caps.env).c_str());

  // The tables to time: scalar and every vector table this CPU runs.
  std::vector<Body> bodies = {{"scalar", &simd::ScalarTable()}};
  for (const char* isa : {"avx2", "avx512"}) {
    if (simd::ForceIsaForTest(isa)) {
      bodies.push_back({isa, &simd::ActiveTable()});
    }
  }
  simd::ForceIsaForTest("");

  // Full runs take 10-40 ms per repeat for the AVX2 table.
  const int div = smoke ? 20 : 1;
  auto calls = [div](int full) { return std::max(1, full / div); };
  std::vector<KernelResult> results;

  // --- butterfly_stage: every stage of the 4,096-point radix-2 FFT, the
  // convolution length of a 2,880-sample window's packed Bluestein.
  {
    const std::size_t n = 4096;
    const auto base = RandomComplex(n, 11);
    const auto tw = RandomComplex(n / 2, 12);
    std::vector<std::complex<double>> buf(n);
    results.push_back(Measure(
        bodies, "butterfly_stage", "butterfly_stage", "4096-point FFT stages",
        calls(400), true,
        [&](const simd::KernelTable& t) {
          buf = base;
          for (std::size_t len = 2; len <= n; len <<= 1) {
            t.butterfly_stage(buf.data(), tw.data(), n, len);
          }
          g_sink = g_sink + buf[1].real();
        },
        [&] { return Flat(buf); }));
  }

  // --- The Bluestein multiplies of the packed 1,440-point transform:
  // chirp in, filter at m = 4,096, de-chirp out.
  {
    const std::size_t n = 1440;
    const std::size_t m = 4096;
    const auto x = RandomComplex(m, 21);
    const auto y = RandomComplex(m, 22);
    std::vector<std::complex<double>> buf(m);
    results.push_back(Measure(
        bodies, "cmul_inplace", "cmul_inplace", "4096 filter multiply",
        calls(3000), true,
        [&](const simd::KernelTable& t) {
          buf = x;
          t.cmul_inplace(buf.data(), y.data(), m);
          g_sink = g_sink + buf[2].real();
        },
        [&] { return Flat(buf); }));
    results.push_back(Measure(
        bodies, "cmul_to", "cmul_to", "1440 chirp multiply", calls(10000),
        true,
        [&](const simd::KernelTable& t) {
          t.cmul_to(buf.data(), x.data(), y.data(), n);
          g_sink = g_sink + buf[2].real();
        },
        [&] { return Flat(buf); }));
    results.push_back(Measure(
        bodies, "cdiv_mul_to", "cdiv_mul_to", "1440 de-chirp", calls(5000),
        true,
        [&](const simd::KernelTable& t) {
          t.cdiv_mul_to(buf.data(), x.data(), static_cast<double>(m),
                        y.data(), n);
          g_sink = g_sink + buf[2].real();
        },
        [&] { return Flat(buf); }));
    // An odd window (2,879 samples) chirp-modulates the real series.
    const auto reals = RandomDoubles(2879, 23);
    results.push_back(Measure(
        bodies, "real_cmul_to", "real_cmul_to", "2879 real chirp multiply",
        calls(5000), true,
        [&](const simd::KernelTable& t) {
          t.real_cmul_to(buf.data(), reals.data(), y.data(), reals.size());
          g_sink = g_sink + buf[2].real();
        },
        [&] { return Flat(buf); }));
  }

  // --- slide_update: the sliding-DFT bins of a 2,880-sample window (1,441
  // bins) flushing 1 slide (8 calls of one, as at refit 1), 5 (the
  // library's default refit) and 20 (perfbench's and the benches' FeMux
  // refit) per call.
  {
    const std::size_t bins = 1441;
    const auto init = RandomComplex(bins, 31);
    std::vector<std::complex<double>> tw(bins);
    for (std::size_t k = 0; k < bins; ++k) {
      const double angle = 2.0 * std::numbers::pi * static_cast<double>(k) /
                           2880.0;
      tw[k] = {std::cos(angle), std::sin(angle)};
    }
    std::vector<double> deltas(20);
    for (std::size_t s = 0; s < deltas.size(); ++s) {
      deltas[s] = 0.25 * static_cast<double>(s + 1);
    }
    std::vector<std::complex<double>> buf(bins);
    for (const std::size_t batch : {1u, 5u, 20u}) {
      const std::size_t flushes = batch == 1 ? 8 : 1;
      const std::string name =
          batch == 1 ? "slide_update" : "slide_update_x" + std::to_string(batch);
      const std::string shape =
          batch == 1 ? "8 flushes of 1 slide, 1441 bins"
                     : "1 flush of " + std::to_string(batch) +
                           " slides, 1441 bins";
      results.push_back(Measure(
          bodies, name, "slide_update", shape,
          calls(batch == 20 ? 1000 : 2500), true,
          [&](const simd::KernelTable& t) {
            buf = init;
            for (std::size_t f = 0; f < flushes; ++f) {
              t.slide_update(buf.data(), deltas.data() + f, batch, tw.data(),
                             bins);
            }
            g_sink = g_sink + buf[3].real();
          },
          [&] { return Flat(buf); }));
    }
  }

  // --- ses_sweep / holt_sweep: the production grids (smoothing.cc: 9
  // alphas; 36 Holt points) over the 120-sample serving window.
  {
    const std::size_t n = kDefaultHistoryMinutes;
    const auto y = RandomDoubles(n, 41);
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
    std::vector<double> levels(g), trends(g), sses(g);
    results.push_back(Measure(
        bodies, "ses_sweep", "ses_sweep", "9 alphas x 120 samples",
        calls(40000), true,
        [&](const simd::KernelTable& t) {
          t.ses_sweep(y.data(), n, alphas.data(), alphas.size(),
                      levels.data(), sses.data());
          g_sink = g_sink + levels[0];
        },
        [&] {
          std::vector<double> out(levels.begin(), levels.begin() + 9);
          out.insert(out.end(), sses.begin(), sses.begin() + 9);
          return out;
        }));
    results.push_back(Measure(
        bodies, "holt_sweep", "holt_sweep", "36 points x 120 samples",
        calls(15000), true,
        [&](const simd::KernelTable& t) {
          t.holt_sweep(y.data(), n, holt_alphas.data(),
                       holt_alpha_betas.data(), g, levels.data(),
                       trends.data(), sses.data());
          g_sink = g_sink + levels[0];
        },
        [&] {
          std::vector<double> out = levels;
          out.insert(out.end(), trends.begin(), trends.end());
          out.insert(out.end(), sses.begin(), sses.end());
          return out;
        }));
  }

  // --- bds_count_within: sup-norm extension over sorted-window candidates.
  {
    const std::size_t series_len = 4096;
    const std::size_t dimension = 3;
    const std::size_t points = series_len - dimension + 1;
    std::vector<double> series(series_len);
    Rng rng(61);
    for (double& v : series) {
      v = static_cast<double>(rng.Next() % 32) / 32.0;
    }
    const std::size_t count = 512;
    std::vector<std::uint32_t> idx(count);
    for (auto& v : idx) {
      v = static_cast<std::uint32_t>(rng.Next() % points);
    }
    std::uint64_t total = 0;
    results.push_back(Measure(
        bodies, "bds_count_within", "bds_count_within",
        "64 points x 512 candidates, dimension 3", calls(500), true,
        [&](const simd::KernelTable& t) {
          total = 0;
          for (std::size_t i = 0; i < 64; ++i) {
            total += t.bds_count_within(series.data(), idx.data(), count,
                                        i * 7, dimension, 0.1);
          }
          g_sink = g_sink + static_cast<double>(total);
        },
        [&] { return std::vector<double>{static_cast<double>(total)}; }));
  }

  // --- kmeans_distances: the trainer's 10-cluster assignment over the 4
  // default features.
  {
    const std::size_t k = 10;
    const std::size_t dims = 4;
    const std::size_t rows = 256;
    const auto soa = RandomDoubles(k * dims, 71);
    const auto points = RandomDoubles(dims * rows, 72);
    std::vector<double> out(k * rows);
    results.push_back(Measure(
        bodies, "kmeans_distances", "kmeans_distances",
        "256 rows x 10 clusters x 4 features", calls(4000), true,
        [&](const simd::KernelTable& t) {
          for (std::size_t p = 0; p < rows; ++p) {
            t.kmeans_distances(points.data() + p * dims, dims, soa.data(), k,
                               k, out.data() + p * k);
          }
          g_sink = g_sink + out[0];
        },
        [&] { return out; }));
  }

  // --- gemv_colmajor: 120 recurrence steps of linear_state (16 x 16) and
  // of the LSTM's gate pre-activations (64 x 16).
  for (const std::size_t rows : {16u, 64u}) {
    const std::size_t cols = 16;
    const auto m = RandomDoubles(rows * cols, 81 + rows);
    const auto v = RandomDoubles(cols, 82 + rows);
    const auto seed = RandomDoubles(rows, 83 + rows);
    std::vector<double> out(rows);
    results.push_back(Measure(
        bodies, rows == 16 ? "gemv_colmajor" : "gemv_colmajor_lstm",
        "gemv_colmajor",
        "120 steps of " + std::to_string(rows) + " x 16",
        calls(rows == 16 ? 2500 : 700), true,
        [&](const simd::KernelTable& t) {
          for (int step = 0; step < 120; ++step) {
            std::copy(seed.begin(), seed.end(), out.begin());
            t.gemv_colmajor(m.data(), rows, cols, rows, v.data(), out.data());
          }
          g_sink = g_sink + out[0];
        },
        [&] { return out; }));
  }

  // --- axpy: the upper-triangle X'X accumulation of the feature
  // extractor's OLS fits over a 504-sample block: the AR-residual design
  // (6 columns) and the ADF regression (19 columns).
  {
    const std::size_t n = kDefaultBlockMinutes;
    const auto x6 = RandomDoubles(n * 6, 91);
    const auto x19 = RandomDoubles(n * 19, 92);
    std::vector<double> xtx(19 * 19);
    auto accumulate = [&](const simd::KernelTable& t, const double* x,
                          std::size_t k) {
      std::fill(xtx.begin(), xtx.end(), 0.0);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < k; ++i) {
          t.axpy(&xtx[i * k + i], x[r * k + i], &x[r * k + i], k - i);
        }
      }
    };
    results.push_back(Measure(
        bodies, "axpy", "axpy", "504-row X'X, 6 and 19 columns", calls(200),
        true,
        [&](const simd::KernelTable& t) {
          accumulate(t, x6.data(), 6);
          g_sink = g_sink + xtx[0];
          accumulate(t, x19.data(), 19);
          g_sink = g_sink + xtx[0];
        },
        [&] { return xtx; }));
  }

  // --- dot_unordered: tolerance-contract kernel (not bit-exact by design;
  // no product path calls it).
  {
    const std::size_t n = 4096;
    const auto a = RandomDoubles(n, 101);
    const auto b = RandomDoubles(n, 102);
    double dot = 0.0;
    results.push_back(Measure(
        bodies, "dot_unordered", "dot_unordered", "4096", calls(20000), false,
        [&](const simd::KernelTable& t) {
          dot = t.dot_unordered(a.data(), b.data(), n);
          g_sink = g_sink + dot;
        },
        [&] { return std::vector<double>{dot}; }));
  }

  // Per row: the active table's speedup over scalar.
  bool parity_ok = true;
  int kernels_passing = 0;
  const std::size_t active_index =
      static_cast<std::size_t>(std::max(0, BodyIndex(bodies, active.isa)));
  std::printf("%-20s %-40s %10s", "kernel", "shape", "scalar us");
  for (std::size_t b = 1; b < bodies.size(); ++b) {
    std::printf("  %-8s us [min, max]     ", bodies[b].isa);
  }
  std::printf("  speedup\n");
  std::vector<double> speedups;
  for (const KernelResult& r : results) {
    parity_ok = parity_ok && r.parity_ok;
    const double speedup =
        r.timings[0].median_us / r.timings[active_index].median_us;
    if (speedup >= 1.5) {
      ++kernels_passing;
    }
    speedups.push_back(speedup);
    std::printf("%-20s %-40s %10.4f", r.name.c_str(), r.shape.c_str(),
                r.timings[0].median_us);
    for (std::size_t b = 1; b < bodies.size(); ++b) {
      std::printf("  %8.4f [%8.4f, %8.4f]", r.timings[b].median_us,
                  r.timings[b].min_us, r.timings[b].max_us);
    }
    std::printf("  %6.2fx %s\n", speedup,
                r.parity_ok
                    ? (r.bit_exact ? "(PASS bit-exact)" : "(PASS <= 1e-9)")
                    : "(FAIL parity)");
  }

  // Speedup gate: >= 1.5x on >= 2 rows whenever a >= 2-lane table is
  // active; otherwise recorded as skipped with the detected ISA (never
  // vacuously passing).
  const bool gate_skipped = active.lanes < 2;
  const bool gate_ok = gate_skipped || kernels_passing >= 2;
  if (gate_skipped) {
    std::printf("speedup gate: SKIPPED (active table %s has %d lane(s); "
                "detected ISA %s)\n",
                active.isa, active.lanes, caps.detected_isa.c_str());
  } else {
    std::printf("speedup gate: %d kernel(s) >= 1.5x (need >= 2) %s\n",
                kernels_passing, gate_ok ? "(PASS)" : "(FAIL)");
  }

  bool json_ok = true;
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"simd_kernels\",\n"
        << "  \"simd\": " << SimdInfoJson() << ",\n"
        << "  \"config\": {\"smoke\": " << (smoke ? "true" : "false")
        << ", \"repeats\": " << kRepeats << ", \"bodies\": [";
    for (std::size_t b = 0; b < bodies.size(); ++b) {
      out << (b > 0 ? ", " : "") << "\"" << bodies[b].isa << "\"";
    }
    out << "]},\n"
        << "  \"kernels\": {\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const KernelResult& r = results[i];
      out << "    \"" << r.name << "\": {\"kernel\": \"" << r.kernel
          << "\", \"shape\": \"" << r.shape << "\", \"calls\": " << r.calls
          << ", \"us_per_call\": {";
      for (std::size_t b = 0; b < bodies.size(); ++b) {
        out << (b > 0 ? ", " : "") << "\"" << bodies[b].isa
            << "\": {\"median\": " << r.timings[b].median_us
            << ", \"min\": " << r.timings[b].min_us
            << ", \"max\": " << r.timings[b].max_us << "}";
      }
      out << "}, \"speedup\": " << speedups[i]
          << ", \"bit_exact\": " << (r.bit_exact ? "true" : "false")
          << ", \"parity_ok\": " << (r.parity_ok ? "true" : "false") << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  },\n"
        << "  \"speedup_gate\": {\"skipped\": "
        << (gate_skipped ? "true" : "false")
        << ", \"detected_isa\": \"" << caps.detected_isa
        << "\", \"required_speedup\": 1.5, \"required_kernels\": 2"
        << ", \"kernels_passing\": " << kernels_passing
        << ", \"ok\": " << (gate_ok ? "true" : "false") << "},\n"
        << "  \"parity_ok\": " << (parity_ok ? "true" : "false") << "\n"
        << "}\n";
    out.flush();
    json_ok = out.good();
    if (json_ok) {
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    }
  }

  return parity_ok && gate_ok && json_ok ? 0 : 1;
}
