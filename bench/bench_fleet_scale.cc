// Streaming fleet-scale macro-benchmark: 10^2 -> 10^6 apps under a fixed
// memory budget (perf trajectory, not a paper figure; DESIGN.md §11/§14).
//
// Bit-identity of the fleet path across chunk sizes, thread counts and
// pending bounds is a ctest contract (tests/sim/fleet_determinism_test.cc
// against the committed golden, tests/sim/fleet_stream_test.cc); multi-core
// throughput is measured by perfbench (stream_fleet). Gated sections:
//
// 1. Sketch-feature parity @ 10^4 Huawei apps. The streaming BlockSketch
//    feature path (FeatureMode::kSketch) is compared against the exact
//    resident-block oracle for the same analogue statistics. The moment
//    features (stationarity, linearity, density, exec time) differ only by
//    floating-point reassociation (tolerance 1e-6 relative); the harmonics
//    feature rides the P^2 p90 estimate, whose error is bounded by the
//    property suite in tests/stats/sketch_test.cc (tolerance 0.1 absolute
//    on the log10 scale here). Gate: 0 out-of-tolerance features.
//
// 2. Zero-allocation hot loop. Global operator new is replaced by a
//    counting hook (bench/alloc_hook.{h,cc}); two sweeps differing only in
//    epochs-per-app are measured after an arena-warming run, so per-app
//    and per-chunk allocations cancel and any allocation delta is per-epoch
//    heap traffic. Gate: 0 per-epoch allocations in steady state.
//
// 3. Huawei-preset scale sweep to 10^6 apps. SimulateFleetStream runs a
//    cheap moving-average policy over lazily generated per-second fleets,
//    recording wall time, apps/sec, epochs/sec and the RSS high-water mark
//    per point. Gate: peak RSS growth across the sweep (a 10^4x fleet-size
//    increase) stays under the configured budget plus fixed slack — flat
//    memory in fleet size.
//
// Usage: bench_fleet_scale [--smoke] [--scale-smoke] [--json=PATH]
//   --smoke        tiny sizes for CI; all sections.
//   --scale-smoke  verify.sh mode: alloc gate + 10^5-app RSS gate only.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_hook.h"
#include "bench/common.h"
#include "src/core/features.h"
#include "src/forecast/registry.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_stream.h"
#include "src/sim/policy.h"
#include "src/sim/thread_pool.h"
#include "src/stats/sketch.h"
#include "src/trace/huawei_generator.h"
#include "src/trace/stream.h"

namespace femux {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct Args {
  bool smoke = false;
  bool scale_smoke = false;
  std::string json_path;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--scale-smoke") {
      args.scale_smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
    }
  }
  return args;
}

struct SweepPoint {
  std::size_t apps = 0;
  double seconds = 0.0;
  std::uint64_t epochs = 0;
  std::size_t chunks = 0;
  std::size_t peak_pending_chunks = 0;
  std::size_t backpressure_waits = 0;
  std::size_t current_rss_bytes = 0;
  std::size_t peak_rss_bytes = 0;
};

struct AllocPoint {
  std::uint64_t allocations = 0;
  std::uint64_t epochs = 0;
};

}  // namespace
}  // namespace femux

int main(int argc, char** argv) {
  using namespace femux;
  const Args args = ParseArgs(argc, argv);

  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t configured = ConfiguredThreadCount();

  // Shared sweep configuration: Huawei preset, per-second samples, 10 s
  // epochs, cheap reactive policy — the fleet pipeline is the measurement,
  // not the forecaster.
  HuaweiGeneratorOptions huawei;
  huawei.duration_minutes = args.smoke ? 10 : 20;
  huawei.seed = 2026;
  SimOptions sweep_sim;
  sweep_sim.epoch_seconds = 10.0;
  const ForecasterPolicy sweep_policy(MakeForecasterByName("moving_average_1"));

  // --- Section 1: sketch-feature parity at fleet scale.
  //
  // Tolerances (documented error bound): the moment features differ from
  // the resident oracle only by floating-point reassociation (1e-6
  // relative). The harmonics feature rides the P^2 p90 estimate; on short
  // zero-inflated serverless blocks individual apps can land a marker on a
  // distribution discontinuity, so the gate bounds the error DISTRIBUTION:
  // p99 of |sketch - exact| <= 0.1 on the log10 scale and worst case
  // <= 0.75 (matching the property bounds in tests/stats/sketch_test.cc).
  const double kMomentTolerance = 1e-6;
  const double kHarmonicsP99Tolerance = 0.1;
  const double kHarmonicsMaxTolerance = 0.75;
  std::size_t sketch_apps = 0;
  std::size_t sketch_failures = 0;
  double sketch_max_moment_error = 0.0;
  double sketch_max_harmonics_error = 0.0;
  double sketch_p99_harmonics_error = 0.0;
  if (!args.scale_smoke) {
    sketch_apps = args.smoke ? 200 : 10000;
    HuaweiGeneratorOptions sketch_gen = huawei;
    sketch_gen.num_apps = static_cast<int>(sketch_apps);
    sketch_gen.seed = 777;
    const HuaweiTraceSource sketch_source(sketch_gen);
    FeatureExtractor extractor(DefaultFeatureSet(), FeatureMode::kSketch);
    FeatureExtractor::Workspace sketch_ws;
    FeatureExtractor::Workspace exact_ws;
    AppTrace app;
    SeriesWorkspace series_ws;
    std::vector<double> demand;
    BlockSketch sketch;
    std::vector<double> harmonics_errors;
    harmonics_errors.reserve(sketch_apps);
    const std::vector<Feature>& feature_set = extractor.features();
    for (std::size_t i = 0; i < sketch_apps; ++i) {
      sketch_source.MakeAppInto(i, &app);
      DemandSeriesInto(app, sweep_sim.epoch_seconds, &series_ws, &demand);
      sketch.Reset();
      for (const double x : demand) {
        sketch.Add(x);
      }
      extractor.ExtractSketchInto(sketch, 0.0, &sketch_ws);
      extractor.ExtractSketchReferenceInto(demand, 0.0, &exact_ws);
      for (std::size_t f = 0; f < feature_set.size(); ++f) {
        const double got = sketch_ws.out[f];
        const double want = exact_ws.out[f];
        const double abs_error = std::fabs(got - want);
        if (feature_set[f] == Feature::kHarmonics) {
          harmonics_errors.push_back(abs_error);
        } else {
          const double rel_error = abs_error / std::max(1.0, std::fabs(want));
          sketch_max_moment_error = std::max(sketch_max_moment_error, rel_error);
          if (rel_error > kMomentTolerance) {
            ++sketch_failures;
          }
        }
      }
    }
    if (!harmonics_errors.empty()) {
      std::sort(harmonics_errors.begin(), harmonics_errors.end());
      sketch_max_harmonics_error = harmonics_errors.back();
      sketch_p99_harmonics_error =
          harmonics_errors[static_cast<std::size_t>(
              0.99 * static_cast<double>(harmonics_errors.size() - 1))];
      if (sketch_p99_harmonics_error > kHarmonicsP99Tolerance ||
          sketch_max_harmonics_error > kHarmonicsMaxTolerance) {
        ++sketch_failures;
      }
    }
    std::printf("sketch parity: %s (%zu apps, %zu failures, max moment rel "
                "err %.2e, harmonics abs err p99 %.4f / max %.4f)\n",
                sketch_failures == 0 ? "PASS" : "FAIL", sketch_apps,
                sketch_failures, sketch_max_moment_error,
                sketch_p99_harmonics_error, sketch_max_harmonics_error);
  }
  const bool sketch_ok = sketch_failures == 0;

  // --- Section 2: zero-allocation hot loop (see header comment and
  // --- bench/alloc_hook.h for the delta protocol).
  const std::size_t alloc_apps = args.smoke ? 500 : 4000;
  const int alloc_short_minutes = args.smoke ? 6 : 10;
  const int alloc_long_minutes = 2 * alloc_short_minutes;
  const auto measure_alloc = [&](int minutes) {
    HuaweiGeneratorOptions gen = huawei;
    gen.num_apps = static_cast<int>(alloc_apps);
    gen.duration_minutes = minutes;
    gen.seed = 99;
    const HuaweiTraceSource source(gen);
    FleetStreamOptions options;
    options.sim = sweep_sim;
    options.chunk_apps = 64;
    options.threads = 1;  // Single participant: one arena, deterministic count.
    const std::uint64_t before = AllocHookCount();
    const FleetStreamResult result =
        SimulateFleetStreamUniform(source, sweep_policy, options);
    AllocPoint point;
    point.allocations = AllocHookCount() - before;
    point.epochs = result.epochs;
    return point;
  };
  measure_alloc(alloc_long_minutes);  // Warm the thread-local arenas.
  const AllocPoint alloc_short = measure_alloc(alloc_short_minutes);
  const AllocPoint alloc_long = measure_alloc(alloc_long_minutes);
  const std::uint64_t alloc_delta =
      alloc_long.allocations > alloc_short.allocations
          ? alloc_long.allocations - alloc_short.allocations
          : 0;
  const std::uint64_t epoch_delta = alloc_long.epochs - alloc_short.epochs;
  const double per_epoch_allocs =
      epoch_delta > 0 ? static_cast<double>(alloc_delta) /
                            static_cast<double>(epoch_delta)
                      : 0.0;
  const bool alloc_ok = alloc_delta == 0;
  std::printf("alloc gate: %s (%zu apps, %llu allocs @ %llu epochs vs "
              "%llu allocs @ %llu epochs -> %llu extra, %.6f per epoch)\n",
              alloc_ok ? "PASS" : "FAIL", alloc_apps,
              static_cast<unsigned long long>(alloc_short.allocations),
              static_cast<unsigned long long>(alloc_short.epochs),
              static_cast<unsigned long long>(alloc_long.allocations),
              static_cast<unsigned long long>(alloc_long.epochs),
              static_cast<unsigned long long>(alloc_delta), per_epoch_allocs);

  // --- Section 3: scale sweep under a fixed memory ceiling.
  const std::size_t memory_budget = args.smoke ? (256u << 10) : (32u << 20);
  const std::size_t rss_slack = 128u << 20;
  const std::vector<std::size_t> sweep_sizes =
      args.smoke ? std::vector<std::size_t>{50, 200}
      : args.scale_smoke
          ? std::vector<std::size_t>{1000, 100000}
          : std::vector<std::size_t>{100, 1000, 10000, 100000, 1000000};

  std::printf("scale sweep: huawei preset, %d min @ %d s/sample, epoch %.0f s, "
              "rss ceiling %.2f MB + %zu MB slack\n",
              huawei.duration_minutes, huawei.seconds_per_sample,
              sweep_sim.epoch_seconds, memory_budget / (1024.0 * 1024.0),
              rss_slack >> 20);
  std::vector<SweepPoint> sweep;
  for (const std::size_t apps : sweep_sizes) {
    HuaweiGeneratorOptions gen = huawei;
    gen.num_apps = static_cast<int>(apps);
    const HuaweiTraceSource source(gen);
    FleetStreamOptions options;
    options.sim = sweep_sim;
    options.chunk_apps = 64;
    const auto start = std::chrono::steady_clock::now();
    const FleetStreamResult result =
        SimulateFleetStreamUniform(source, sweep_policy, options);
    SweepPoint point;
    point.apps = result.apps;
    point.seconds = Seconds(start);
    point.epochs = result.epochs;
    point.chunks = result.chunks;
    point.peak_pending_chunks = result.peak_pending_chunks;
    point.backpressure_waits = result.backpressure_waits;
    point.current_rss_bytes = CurrentRssBytes();
    point.peak_rss_bytes = PeakRssBytes();
    sweep.push_back(point);
    std::printf("  %7zu apps  %8.3f s  %9.0f apps/s  %11.0f epochs/s  "
                "peak rss %6.1f MB  pending %zu  waits %zu\n",
                point.apps, point.seconds,
                point.seconds > 0.0 ? point.apps / point.seconds : 0.0,
                point.seconds > 0.0 ? point.epochs / point.seconds : 0.0,
                point.peak_rss_bytes / (1024.0 * 1024.0),
                point.peak_pending_chunks, point.backpressure_waits);
  }

  // Flat-memory gate: RSS high-water growth across the whole sweep must
  // stay within the fixed ceiling (allocator retention, thread stacks) —
  // i.e. independent of fleet size.
  const std::size_t rss_first = sweep.front().peak_rss_bytes;
  const std::size_t rss_last = sweep.back().peak_rss_bytes;
  const std::size_t rss_growth = rss_last > rss_first ? rss_last - rss_first : 0;
  const bool rss_known = rss_first != 0 && rss_last != 0;
  const bool flat_ok = !rss_known || rss_growth <= memory_budget + rss_slack;
  std::printf("memory: peak rss %.1f MB -> %.1f MB (growth %.1f MB, "
              "ceiling %.2f MB + %zu MB slack) %s%s\n",
              rss_first / (1024.0 * 1024.0), rss_last / (1024.0 * 1024.0),
              rss_growth / (1024.0 * 1024.0), memory_budget / (1024.0 * 1024.0),
              rss_slack >> 20, flat_ok ? "PASS" : "FAIL",
              rss_known ? "" : " (rss unavailable)");

  const bool all_ok = sketch_ok && alloc_ok && flat_ok;

  bool json_ok = true;
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << "{\n"
        << "  \"bench\": \"fleet_scale\",\n"
        << "  \"simd\": " << SimdInfoJson() << ",\n"
        << "  \"config\": {\"smoke\": " << (args.smoke ? "true" : "false")
        << ", \"scale_smoke\": " << (args.scale_smoke ? "true" : "false")
        << ", \"hardware_concurrency\": " << hardware
        << ", \"configured_threads\": " << configured
        << ", \"huawei_duration_minutes\": " << huawei.duration_minutes
        << ", \"huawei_seconds_per_sample\": " << huawei.seconds_per_sample
        << ", \"epoch_seconds\": " << sweep_sim.epoch_seconds
        << ", \"chunk_apps\": 64"
        << ", \"memory_budget_bytes\": " << memory_budget << "},\n"
        << "  \"sketch_parity\": {\"apps\": " << sketch_apps
        << ", \"failures\": " << sketch_failures
        << ", \"moment_tolerance_rel\": " << kMomentTolerance
        << ", \"harmonics_p99_tolerance_abs\": " << kHarmonicsP99Tolerance
        << ", \"harmonics_max_tolerance_abs\": " << kHarmonicsMaxTolerance
        << ", \"max_moment_error_rel\": " << sketch_max_moment_error
        << ", \"p99_harmonics_error_abs\": " << sketch_p99_harmonics_error
        << ", \"max_harmonics_error_abs\": " << sketch_max_harmonics_error
        << ", \"ok\": " << (sketch_ok ? "true" : "false") << "},\n"
        << "  \"alloc_gate\": {\"apps\": " << alloc_apps
        << ", \"short_allocations\": " << alloc_short.allocations
        << ", \"short_epochs\": " << alloc_short.epochs
        << ", \"long_allocations\": " << alloc_long.allocations
        << ", \"long_epochs\": " << alloc_long.epochs
        << ", \"delta_allocations\": " << alloc_delta
        << ", \"per_epoch_allocations\": " << per_epoch_allocs
        << ", \"ok\": " << (alloc_ok ? "true" : "false") << "},\n"
        << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& p = sweep[i];
      out << "    {\"apps\": " << p.apps << ", \"seconds\": " << p.seconds
          << ", \"apps_per_sec\": " << (p.seconds > 0.0 ? p.apps / p.seconds : 0.0)
          << ", \"epochs\": " << p.epochs
          << ", \"epochs_per_sec\": "
          << (p.seconds > 0.0 ? p.epochs / p.seconds : 0.0)
          << ", \"chunks\": " << p.chunks
          << ", \"peak_pending_chunks\": " << p.peak_pending_chunks
          << ", \"backpressure_waits\": " << p.backpressure_waits
          << ", \"current_rss_bytes\": " << p.current_rss_bytes
          << ", \"peak_rss_bytes\": " << p.peak_rss_bytes << "}"
          << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"memory\": {\"peak_rss_first_bytes\": " << rss_first
        << ", \"peak_rss_last_bytes\": " << rss_last
        << ", \"growth_bytes\": " << rss_growth
        << ", \"budget_bytes\": " << memory_budget
        << ", \"slack_bytes\": " << rss_slack
        << ", \"rss_known\": " << (rss_known ? "true" : "false")
        << ", \"flat_ok\": " << (flat_ok ? "true" : "false") << "},\n"
        << "  \"ok\": " << (all_ok ? "true" : "false") << "\n}\n";
    out.flush();
    json_ok = out.good();
    if (json_ok) {
      std::printf("wrote %s\n", args.json_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", args.json_path.c_str());
    }
  }

  return all_ok && json_ok ? 0 : 1;
}
