// Scaler-daemon load benchmark: decision latency, throughput, and the cost
// of resilience (DESIGN.md §13).
//
// Two measured phases over the same synthetic multi-tenant fleet, with
// concurrent producer threads pushing one metric sample per app per tick:
//
// 1. Faults off. Decision latency percentiles (p50/p99) and decisions/sec
//    for the bare ladder: forecast rung only, zero degradations expected.
//
// 2. Faults on (fixed seed). The full injection matrix — throwing and slow
//    forecasters (real busy-spin delays, so injected spikes land in the
//    measured percentiles), corrupt/duplicate/reordered/late pushes, skewed
//    deadline clocks, torn periodic checkpoints. Reports the same latency
//    stats plus the complete health-counter block.
//
// Per-component breakdown (Li et al.-style): mean per-tick time in ingest
// (queue drain + validation), decide (the ladder), and checkpoint (on the
// tick: the snapshot copy; on the writer thread: formatting and writing).
//
// Gates (exit code != 0 on failure):
//   - no lost apps in either phase (every tenant still registered),
//   - faults off: every decision comes from the forecast rung,
//   - faults on: every decision lands on exactly one ladder rung, and
//     degraded + quarantined decisions stay under 20% of the total,
//   - faults on: periodic checkpoints ran and the last one restores,
//   - faults on: the tick spends at most 0.25x the writer's time on
//     checkpoints (checkpoint_us <= 0.25 * checkpoint_write_us; both are
//     measured in the same run, so the box's speed cancels out).
//
// Usage: bench_scaler_daemon [--smoke] [--json=PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/serve/fault.h"
#include "src/serve/scaler_daemon.h"

namespace femux {
namespace {

struct Args {
  bool smoke = false;
  std::string json_path;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
    }
  }
  return args;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Sample(std::size_t app_index, std::uint64_t epoch) {
  const double base = 4.0 + static_cast<double>(app_index % 9);
  const double diurnal =
      3.0 * std::sin(0.05 * static_cast<double>(epoch) + static_cast<double>(app_index));
  const double burst = (epoch + app_index) % 37 == 0 ? 6.0 : 0.0;
  return std::max(0.0, base + diurnal + burst);
}

FaultSpec BenchFaults() {
  FaultSpec spec;
  spec.seed = 20260808;
  spec.forecast_throw = 0.02;
  spec.forecast_delay_prob = 0.05;
  spec.forecast_delay_ms = 2.0;  // Real busy-spin: lands in the percentiles.
  spec.corrupt_push = 0.02;
  spec.dup_push = 0.02;
  spec.reorder_push = 0.02;
  spec.late_push = 0.02;
  spec.clock_skew_prob = 0.02;
  spec.clock_skew_ms = 2.0;
  spec.checkpoint_truncate = 0.5;
  return spec;
}

struct PhaseResult {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double decisions_per_sec = 0.0;
  double wall_seconds = 0.0;
  double ingest_us_per_tick = 0.0;
  double decide_us_per_tick = 0.0;
  double checkpoint_us_per_tick = 0.0;
  double checkpoint_write_us_per_tick = 0.0;
  DaemonCounters counters;
  std::size_t apps = 0;
  std::string health_json;
};

PhaseResult RunPhase(const ScalerDaemonOptions& options,
                     const std::vector<std::string>& ids, std::uint64_t ticks,
                     int producers) {
  ScalerDaemon daemon(options);
  std::vector<double> latencies;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t tick = 1; tick <= ticks; ++tick) {
    std::vector<std::thread> threads;
    threads.reserve(producers);
    std::atomic<std::size_t> next{0};
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < ids.size();
             i = next.fetch_add(1)) {
          daemon.Push({ids[i], tick, Sample(i, tick)});
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    daemon.TickOnce();
  }
  PhaseResult result;
  result.wall_seconds = Seconds(start);
  latencies = daemon.DrainDecisionLatenciesUs();
  result.p50_us = Percentile(latencies, 0.50);
  result.p99_us = Percentile(latencies, 0.99);
  result.counters = daemon.counters();
  result.decisions_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.counters.decisions) / result.wall_seconds
          : 0.0;
  const double tick_count = static_cast<double>(result.counters.ticks);
  if (tick_count > 0.0) {
    result.ingest_us_per_tick = result.counters.ingest_us / tick_count;
    result.decide_us_per_tick = result.counters.decide_us / tick_count;
    result.checkpoint_us_per_tick = result.counters.checkpoint_us / tick_count;
    result.checkpoint_write_us_per_tick =
        result.counters.checkpoint_write_us / tick_count;
  }
  result.apps = daemon.app_count();
  result.health_json = DaemonHealthJson(daemon);
  return result;
}

std::string PhaseJson(const PhaseResult& r) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"p50_us\": %.3f, \"p99_us\": %.3f, \"decisions_per_sec\": %.1f, "
                "\"wall_seconds\": %.4f, \"ingest_us_per_tick\": %.2f, "
                "\"decide_us_per_tick\": %.2f, \"checkpoint_us_per_tick\": %.2f, "
                "\"checkpoint_write_us_per_tick\": %.2f, \"health\": ",
                r.p50_us, r.p99_us, r.decisions_per_sec, r.wall_seconds,
                r.ingest_us_per_tick, r.decide_us_per_tick,
                r.checkpoint_us_per_tick, r.checkpoint_write_us_per_tick);
  return std::string(buffer) + r.health_json + "}";
}

}  // namespace
}  // namespace femux

int main(int argc, char** argv) {
  using namespace femux;
  const Args args = ParseArgs(argc, argv);
  const std::size_t num_apps = args.smoke ? 32 : 256;
  const std::uint64_t ticks = args.smoke ? 20 : 200;
  const int producers = 4;

  PrintHeader("scaler_daemon",
              "online daemon: decision latency, throughput, and the cost of "
              "resilience under the fault matrix");

  std::vector<std::string> ids;
  ids.reserve(num_apps);
  for (std::size_t i = 0; i < num_apps; ++i) {
    ids.push_back("bench-app-" + std::to_string(i));
  }

  ScalerDaemonOptions base;
  base.shards = 8;
  base.queue_capacity = 1 << 14;
  base.forecaster = "holt";
  base.history_window = 64;
  base.fallback_window = 30;
  // Generous budget: injected spikes are ~2 ms, so the ladder still always
  // finishes in time — the deadline machinery is exercised by the test
  // suite; here a scheduler stall on a loaded CI box must not flip a gate.
  base.decision_deadline_ms = 100.0;
  base.retry.max_attempts = 3;
  base.quarantine_threshold = 3;
  base.quarantine_ticks = 8;
  base.spin_on_injected_delay = true;  // Latency spikes must be real here.

  // --- Phase 1: faults off.
  const PhaseResult clean = RunPhase(base, ids, ticks, producers);
  std::printf("faults off:  %zu apps x %llu ticks  p50 %.1f us  p99 %.1f us  "
              "%.0f decisions/s\n",
              clean.apps, static_cast<unsigned long long>(ticks), clean.p50_us,
              clean.p99_us, clean.decisions_per_sec);
  std::printf("  per tick: ingest %.1f us  decide %.1f us\n",
              clean.ingest_us_per_tick, clean.decide_us_per_tick);

  // --- Phase 2: full fault matrix, fixed seed, periodic torn checkpoints.
  ScalerDaemonOptions chaotic = base;
  chaotic.faults = BenchFaults();
  std::filesystem::create_directories("bench_cache");
  chaotic.checkpoint_path = "bench_cache/scaler_daemon.ckpt";
  chaotic.checkpoint_every_ticks = args.smoke ? 5 : 20;
  const PhaseResult faulty = RunPhase(chaotic, ids, ticks, producers);
  std::printf("faults on:   %zu apps x %llu ticks  p50 %.1f us  p99 %.1f us  "
              "%.0f decisions/s\n",
              faulty.apps, static_cast<unsigned long long>(ticks), faulty.p50_us,
              faulty.p99_us, faulty.decisions_per_sec);
  std::printf("  per tick: ingest %.1f us  decide %.1f us  checkpoint %.1f us "
              "(writer %.1f us)\n",
              faulty.ingest_us_per_tick, faulty.decide_us_per_tick,
              faulty.checkpoint_us_per_tick, faulty.checkpoint_write_us_per_tick);
  const DaemonCounters& fc = faulty.counters;
  std::printf("  health: %llu degraded (%llu last-good, %llu moving-avg), "
              "%llu quarantined decisions, %llu retries, %llu deadline misses, "
              "%llu checkpoints (%llu bytes last)\n",
              static_cast<unsigned long long>(fc.degraded_last_good +
                                              fc.degraded_moving_avg),
              static_cast<unsigned long long>(fc.degraded_last_good),
              static_cast<unsigned long long>(fc.degraded_moving_avg),
              static_cast<unsigned long long>(fc.quarantined_decisions),
              static_cast<unsigned long long>(fc.retries),
              static_cast<unsigned long long>(fc.deadline_misses),
              static_cast<unsigned long long>(fc.checkpoints),
              static_cast<unsigned long long>(fc.checkpoint_bytes));

  // --- Restore check: the last (possibly torn) checkpoint must come back.
  std::size_t restored = 0;
  {
    ScalerDaemon restarter(chaotic);
    restored = restarter.RestoreFromCheckpoint();
  }
  std::printf("  restore: %zu of %zu apps from the last checkpoint\n", restored,
              num_apps);

  // --- Gates.
  const bool apps_ok = clean.apps == num_apps && faulty.apps == num_apps;
  const bool clean_ok =
      clean.counters.forecast_ok == clean.counters.decisions &&
      clean.counters.degraded_last_good == 0 &&
      clean.counters.degraded_moving_avg == 0 &&
      clean.counters.quarantined_decisions == 0;
  const std::uint64_t faulty_off_rung = fc.degraded_last_good +
                                        fc.degraded_moving_avg +
                                        fc.quarantined_decisions;
  const bool ladder_ok = fc.forecast_ok + faulty_off_rung == fc.decisions;
  const bool degradation_ok =
      static_cast<double>(faulty_off_rung) <= 0.20 * static_cast<double>(fc.decisions);
  const bool checkpoint_ok =
      fc.checkpoints + fc.checkpoint_failures > 0 && restored > 0;
  // The tick copies the snapshot; the writer formats and writes it.
  constexpr double kTickShareLimit = 0.25;
  const double tick_share =
      fc.checkpoint_write_us > 0.0 ? fc.checkpoint_us / fc.checkpoint_write_us : 0.0;
  const bool offload_ok =
      fc.checkpoint_write_us > 0.0 && tick_share <= kTickShareLimit;
  std::printf("  checkpoint cost: tick %.1f us, writer %.1f us (tick/writer %.3f "
              "<= %.2f), %llu waits\n",
              fc.checkpoint_us, fc.checkpoint_write_us, tick_share, kTickShareLimit,
              static_cast<unsigned long long>(fc.checkpoint_waits));
  std::printf("gates: apps %s  clean-run %s  ladder %s  degradation %s  "
              "checkpoint %s  checkpoint-offload %s\n",
              apps_ok ? "PASS" : "FAIL", clean_ok ? "PASS" : "FAIL",
              ladder_ok ? "PASS" : "FAIL", degradation_ok ? "PASS" : "FAIL",
              checkpoint_ok ? "PASS" : "FAIL", offload_ok ? "PASS" : "FAIL");
  const bool ok = apps_ok && clean_ok && ladder_ok && degradation_ok &&
                  checkpoint_ok && offload_ok;

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << "{\n"
        << "  \"bench\": \"scaler_daemon\",\n"
        << "  \"simd\": " << SimdInfoJson() << ",\n"
        << "  \"config\": {\"smoke\": " << (args.smoke ? "true" : "false")
        << ", \"apps\": " << num_apps << ", \"ticks\": " << ticks
        << ", \"producers\": " << producers << ", \"shards\": " << base.shards
        << ", \"forecaster\": \"" << base.forecaster
        << "\", \"decision_deadline_ms\": " << base.decision_deadline_ms
        << ", \"fault_seed\": " << BenchFaults().seed << "},\n"
        << "  \"faults_off\": " << PhaseJson(clean) << ",\n"
        << "  \"faults_on\": " << PhaseJson(faulty) << ",\n"
        << "  \"restored_apps\": " << restored << ",\n"
        << "  \"gates\": {\"apps\": " << (apps_ok ? "true" : "false")
        << ", \"clean_run\": " << (clean_ok ? "true" : "false")
        << ", \"ladder\": " << (ladder_ok ? "true" : "false")
        << ", \"degradation\": " << (degradation_ok ? "true" : "false")
        << ", \"checkpoint\": " << (checkpoint_ok ? "true" : "false")
        << ", \"checkpoint_offload\": {\"checkpoint_us\": " << fc.checkpoint_us
        << ", \"checkpoint_write_us\": " << fc.checkpoint_write_us
        << ", \"tick_share\": " << tick_share << ", \"limit\": " << kTickShareLimit
        << ", \"ok\": " << (offload_ok ? "true" : "false") << "}"
        << ", \"all\": " << (ok ? "true" : "false") << "}\n"
        << "}\n";
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return ok ? 0 : 1;
}
