// Per-kernel scalar-vs-SIMD micro-benchmark for the SIMD kernel layer
// (DESIGN.md §12).
//
// For every kernel in simd::KernelTable, runs the scalar reference table
// and the runtime-dispatched active table on identical inputs shaped like
// the production workloads (FFT stage sweeps at 4096, sliding-DFT bins at
// a 2880-sample window, one slide per call and the FFT forecaster's batch
// of 5, the real SES/Holt grids, BDS windows, the
// 10-cluster K-means of the trainer) and reports per-kernel speedups.
//
// Gates:
//   1. Parity. Every kernel's vector output must be byte-identical to the
//      scalar table's on the same inputs (the layer's contract), except
//      dot_unordered which is tolerance-checked at 1e-9 relative.
//   2. Speedup. When the active table has >= 2 lanes, at least two kernels
//      must reach >= 1.5x over scalar. When only the scalar table is
//      available (non-x86 hardware, or FEMUX_SIMD=off), the gate records
//      itself as skipped with the detected ISA instead of passing
//      vacuously.
//
// Usage: bench_simd_kernels [--smoke] [--json=PATH]
#include "bench/common.h"

#include <algorithm>
#include <bit>
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

#include "src/stats/simd.h"

namespace femux {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

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

bool BitEqual(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool BitEqual(const std::complex<double>* a, const std::complex<double>* b,
              std::size_t n) {
  return std::memcmp(a, b, n * sizeof(std::complex<double>)) == 0;
}

// Defeats dead-code elimination across timing loops.
volatile double g_sink = 0.0;

struct KernelResult {
  std::string name;
  double scalar_seconds = 0.0;
  double simd_seconds = 0.0;
  double speedup = 1.0;
  bool parity_ok = true;
  bool bit_exact = true;  // false only for dot_unordered's tolerance check.
};

// Times `body(table)` over `reps` iterations for both tables.
template <typename Body>
KernelResult TimeKernel(const std::string& name, int reps, Body&& body) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  const simd::KernelTable& active = simd::ActiveTable();
  KernelResult r;
  r.name = name;
  // One untimed warm pass per table keeps cache state comparable.
  body(scalar);
  body(active);
  const auto scalar_start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    body(scalar);
  }
  r.scalar_seconds = Seconds(scalar_start);
  const auto simd_start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    body(active);
  }
  r.simd_seconds = Seconds(simd_start);
  r.speedup = r.simd_seconds > 0.0 ? r.scalar_seconds / r.simd_seconds : 1.0;
  return r;
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
  const simd::KernelTable& scalar = simd::ScalarTable();
  const simd::KernelTable& active = simd::ActiveTable();
  std::printf("simd kernels: detected=%s active=%s lanes=%d%s\n",
              caps.detected_isa.c_str(), caps.active_isa.c_str(), caps.lanes,
              caps.env.empty() ? "" : (" FEMUX_SIMD=" + caps.env).c_str());

  const int scale = smoke ? 1 : 20;
  std::vector<KernelResult> results;
  bool parity_ok = true;

  // --- butterfly_stage: the full stage sweep of a 4096-point radix-2 FFT.
  {
    const std::size_t n = 4096;
    const auto base = RandomComplex(n, 11);
    const auto tw = RandomComplex(n / 2, 12);
    std::vector<std::complex<double>> buf(n);
    auto run_stages = [&](const simd::KernelTable& t,
                          std::vector<std::complex<double>>* data) {
      *data = base;
      for (std::size_t len = 2; len <= n; len <<= 1) {
        t.butterfly_stage(data->data(), tw.data(), n, len);
      }
      g_sink = g_sink + (*data)[1].real();
    };
    std::vector<std::complex<double>> out_scalar(n), out_simd(n);
    run_stages(scalar, &out_scalar);
    run_stages(active, &out_simd);
    KernelResult r = TimeKernel("butterfly_stage", 40 * scale,
                                [&](const simd::KernelTable& t) {
                                  run_stages(t, &buf);
                                });
    r.parity_ok = BitEqual(out_scalar.data(), out_simd.data(), n);
    results.push_back(r);
  }

  // --- cmul_inplace: Bluestein's m-point filter multiply (m = 4096).
  {
    const std::size_t n = 4096;
    const auto x = RandomComplex(n, 21);
    const auto y = RandomComplex(n, 22);
    std::vector<std::complex<double>> buf(n);
    auto run = [&](const simd::KernelTable& t,
                   std::vector<std::complex<double>>* data) {
      *data = x;
      t.cmul_inplace(data->data(), y.data(), n);
      g_sink = g_sink + (*data)[2].real();
    };
    std::vector<std::complex<double>> out_scalar(n), out_simd(n);
    run(scalar, &out_scalar);
    run(active, &out_simd);
    KernelResult r = TimeKernel("cmul_inplace", 400 * scale,
                                [&](const simd::KernelTable& t) {
                                  run(t, &buf);
                                });
    r.parity_ok = BitEqual(out_scalar.data(), out_simd.data(), n);
    results.push_back(r);
  }

  // --- slide_update: sliding-DFT bins of a 2880-sample window (1441 bins),
  // in the one-slide shape (8 calls of one slide, as at refit 1) and in
  // the forecaster's batched shape (5 pending slides per call, as at
  // FeMux's refit 5).
  {
    const std::size_t bins = 1441;
    const auto init = RandomComplex(bins, 31);
    std::vector<std::complex<double>> tw(bins);
    for (std::size_t k = 0; k < bins; ++k) {
      const double angle = 2.0 * std::numbers::pi * static_cast<double>(k) /
                           2880.0;
      tw[k] = {std::cos(angle), std::sin(angle)};
    }
    std::vector<double> deltas(8);
    for (std::size_t s = 0; s < deltas.size(); ++s) {
      deltas[s] = 0.25 * static_cast<double>(s + 1);
    }
    std::vector<std::complex<double>> buf(bins);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
      const std::size_t calls = batch == 1 ? 8 : 1;
      auto run = [&](const simd::KernelTable& t,
                     std::vector<std::complex<double>>* data) {
        *data = init;
        for (std::size_t c = 0; c < calls; ++c) {
          t.slide_update(data->data(), deltas.data() + c, batch, tw.data(),
                         bins);
        }
        g_sink = g_sink + (*data)[3].real();
      };
      std::vector<std::complex<double>> out_scalar(bins), out_simd(bins);
      run(scalar, &out_scalar);
      run(active, &out_simd);
      KernelResult r = TimeKernel(
          batch == 1 ? "slide_update" : "slide_update_x5", 150 * scale,
          [&](const simd::KernelTable& t) { run(t, &buf); });
      r.parity_ok = BitEqual(out_scalar.data(), out_simd.data(), bins);
      results.push_back(r);
    }
  }

  // --- ses_sweep / holt_sweep: the production grids (9 alphas; 36 Holt
  // grid points) over a day-scale window.
  {
    const std::size_t n = 2880;
    const auto y = RandomDoubles(n, 41);
    const auto alphas = RandomDoubles(9, 42);
    std::vector<double> levels(9), sses(9);
    auto run = [&](const simd::KernelTable& t) {
      t.ses_sweep(y.data(), n, alphas.data(), alphas.size(), levels.data(),
                  sses.data());
      g_sink = g_sink + levels[0];
    };
    std::vector<double> ls(9), ss(9);
    scalar.ses_sweep(y.data(), n, alphas.data(), 9, ls.data(), ss.data());
    std::vector<double> lv(9), sv(9);
    active.ses_sweep(y.data(), n, alphas.data(), 9, lv.data(), sv.data());
    KernelResult r = TimeKernel("ses_sweep", 150 * scale, run);
    r.parity_ok = BitEqual(ls.data(), lv.data(), 9) &&
                  BitEqual(ss.data(), sv.data(), 9);
    results.push_back(r);
  }
  {
    const std::size_t n = 2880;
    const std::size_t g = 36;
    const auto y = RandomDoubles(n, 51);
    const auto alphas = RandomDoubles(g, 52);
    const auto alpha_betas = RandomDoubles(g, 53);
    std::vector<double> levels(g), trends(g), sses(g);
    auto run = [&](const simd::KernelTable& t) {
      t.holt_sweep(y.data(), n, alphas.data(), alpha_betas.data(), g,
                   levels.data(), trends.data(), sses.data());
      g_sink = g_sink + levels[0];
    };
    std::vector<double> la(g), ta(g), sa(g), lb(g), tb(g), sb(g);
    scalar.holt_sweep(y.data(), n, alphas.data(), alpha_betas.data(), g,
                      la.data(), ta.data(), sa.data());
    active.holt_sweep(y.data(), n, alphas.data(), alpha_betas.data(), g,
                      lb.data(), tb.data(), sb.data());
    KernelResult r = TimeKernel("holt_sweep", 40 * scale, run);
    r.parity_ok = BitEqual(la.data(), lb.data(), g) &&
                  BitEqual(ta.data(), tb.data(), g) &&
                  BitEqual(sa.data(), sb.data(), g);
    results.push_back(r);
  }

  // --- bds_count_within: sup-norm extension over sorted-window candidates.
  {
    const std::size_t series_len = 4096;
    const std::size_t dimension = 3;
    const std::size_t points = series_len - dimension + 1;
    std::vector<double> series(series_len);
    {
      Rng rng(61);
      for (double& v : series) {
        v = static_cast<double>(rng.Next() % 32) / 32.0;
      }
    }
    const std::size_t count = 512;
    std::vector<std::uint32_t> idx(count);
    {
      Rng rng(62);
      for (auto& v : idx) {
        v = static_cast<std::uint32_t>(rng.Next() % points);
      }
    }
    auto run = [&](const simd::KernelTable& t) {
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < 64; ++i) {
        total += t.bds_count_within(series.data(), idx.data(), count, i * 7,
                                    dimension, 0.1);
      }
      g_sink = g_sink + static_cast<double>(total);
    };
    const std::uint64_t a = scalar.bds_count_within(series.data(), idx.data(),
                                                    count, 5, dimension, 0.1);
    const std::uint64_t b = active.bds_count_within(series.data(), idx.data(),
                                                    count, 5, dimension, 0.1);
    KernelResult r = TimeKernel("bds_count_within", 150 * scale, run);
    r.parity_ok = a == b;
    results.push_back(r);
  }

  // --- kmeans_distances: the trainer's 10-cluster argmin over feature rows.
  {
    const std::size_t k = 10;
    const std::size_t dims = 8;
    const auto soa = RandomDoubles(k * dims, 71);
    const auto points = RandomDoubles(dims * 256, 72);
    std::vector<double> out(k);
    auto run = [&](const simd::KernelTable& t) {
      for (std::size_t p = 0; p < 256; ++p) {
        t.kmeans_distances(points.data() + p * dims, dims, soa.data(), k, k,
                           out.data());
        g_sink = g_sink + out[0];
      }
    };
    std::vector<double> da(k), db(k);
    scalar.kmeans_distances(points.data(), dims, soa.data(), k, k, da.data());
    active.kmeans_distances(points.data(), dims, soa.data(), k, k, db.data());
    KernelResult r = TimeKernel("kmeans_distances", 150 * scale, run);
    r.parity_ok = BitEqual(da.data(), db.data(), k);
    results.push_back(r);
  }

  // --- axpy: OLS normal-equation row accumulation shape.
  {
    const std::size_t n = 1024;
    const auto x = RandomDoubles(n, 81);
    std::vector<double> y0 = RandomDoubles(n, 82);
    std::vector<double> buf(n);
    auto run = [&](const simd::KernelTable& t, std::vector<double>* y) {
      *y = y0;
      for (int i = 0; i < 16; ++i) {
        t.axpy(y->data(), 0.5 + 0.01 * i, x.data(), n);
      }
      g_sink = g_sink + (*y)[1];
    };
    std::vector<double> ya(n), yb(n);
    run(scalar, &ya);
    run(active, &yb);
    KernelResult r = TimeKernel("axpy", 400 * scale,
                                [&](const simd::KernelTable& t) {
                                  run(t, &buf);
                                });
    r.parity_ok = BitEqual(ya.data(), yb.data(), n);
    results.push_back(r);
  }

  // --- dot_unordered: tolerance-contract kernel (not bit-exact by design).
  {
    const std::size_t n = 4096;
    const auto a = RandomDoubles(n, 91);
    const auto b = RandomDoubles(n, 92);
    auto run = [&](const simd::KernelTable& t) {
      g_sink = g_sink + t.dot_unordered(a.data(), b.data(), n);
    };
    const double da = scalar.dot_unordered(a.data(), b.data(), n);
    const double db = active.dot_unordered(a.data(), b.data(), n);
    KernelResult r = TimeKernel("dot_unordered", 400 * scale, run);
    r.bit_exact = false;
    r.parity_ok = std::fabs(da - db) <= 1e-9 * (1.0 + std::fabs(da));
    results.push_back(r);
  }

  for (const KernelResult& r : results) {
    if (!r.parity_ok) {
      parity_ok = false;
    }
    std::printf("%-18s scalar %9.4f s  simd %9.4f s  speedup %6.2fx  %s\n",
                r.name.c_str(), r.scalar_seconds, r.simd_seconds, r.speedup,
                r.parity_ok
                    ? (r.bit_exact ? "(PASS bit-exact)" : "(PASS <= 1e-9)")
                    : "(FAIL parity)");
  }

  // Speedup gate: >= 1.5x on >= 2 kernels whenever a >= 2-lane table is
  // active; otherwise recorded as skipped with the detected ISA (never
  // vacuously passing).
  const bool gate_skipped = active.lanes < 2;
  int kernels_passing = 0;
  for (const KernelResult& r : results) {
    if (r.speedup >= 1.5) {
      ++kernels_passing;
    }
  }
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
        << "},\n"
        << "  \"kernels\": {\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const KernelResult& r = results[i];
      out << "    \"" << r.name << "\": {\"scalar_seconds\": "
          << r.scalar_seconds << ", \"simd_seconds\": " << r.simd_seconds
          << ", \"speedup\": " << r.speedup
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
