// femux_fleet and stream_fleet: SimulateFleetStream over a lazily generated
// fleet, one policy per app, on the run's threads.
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/tracing.h"
#include "perfbench/workloads.h"
#include "bench/common.h"
#include "src/core/femux.h"
#include "src/core/rum.h"
#include "src/core/trainer.h"
#include "src/forecast/registry.h"
#include "src/sim/fleet_stream.h"
#include "src/trace/stream.h"

namespace perfbench {
namespace {

using femux::FleetStreamOptions;
using femux::FleetStreamResult;
using femux::PolicyFactory;
using femux::TraceSource;

// femux_fleet: a sketch-mode model trained on one Azure-like fleet serves a
// held-out one at 60 s epochs; 14 days = 20160 epochs = 40 blocks of 504.
// Both populations are fixed (see PermutedSource); the seed orders the
// served fleet. Seed 7 is the bench suite's standard Azure population.
constexpr std::uint64_t kTrainPopulationSeed = 7;
constexpr std::uint64_t kFleetPopulationSeed = 11;
constexpr int kFemuxTrainApps = 16;
constexpr int kFemuxTrainDays = 6;
constexpr std::size_t kFemuxTrainChunkApps = 2;
constexpr int kFemuxFleetApps = 320;
constexpr int kFemuxFleetDays = 14;
constexpr std::size_t kFemuxChunkApps = 8;
constexpr std::size_t kFemuxModelCheckApps = 4;
constexpr std::size_t kFemuxFleetCheckApps = 16;

// stream_fleet: the bench_fleet_scale scale point.
constexpr int kStreamApps = 100000;
constexpr int kStreamMinutes = 20;
constexpr double kStreamEpochSeconds = 10.0;
constexpr std::size_t kStreamChunkApps = 64;
constexpr std::size_t kStreamWarmupApps = 2048;
constexpr std::size_t kStreamCheckApps = 2048;

constexpr int kSetupReps = 3;

struct FleetWorkload {
  const TraceSource* source = nullptr;
  PolicyFactory factory;
  FleetStreamOptions options;
  std::size_t block_epochs = 0;  // Epochs per FemuxPolicy block; 0 = no blocks.
  std::size_t check_apps = 0;
  double setup_s = 0.0;
};

struct Pass {
  double seconds = 0.0;
  FleetStreamResult result;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
};

Pass RunPass(const FleetWorkload& w, bool trace, FleetSpans* spans) {
  spans->app_latency_ms.clear();
  const TimedSource timed(*w.source, spans, trace);
  const PolicyFactory factory = TimedFactory(w.factory, spans, trace, w.block_epochs);
  Pass pass;
  const auto start = Clock::now();
  pass.result = femux::SimulateFleetStream(timed, factory, w.options);
  pass.seconds = SecondsSince(start);
  pass.latency_p50_ms = Percentile(spans->app_latency_ms, 0.50);
  pass.latency_p99_ms = Percentile(spans->app_latency_ms, 0.99);
  return pass;
}

std::string Spread(const std::vector<double>& values) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "min %.4g median %.4g max %.4g",
                Percentile(values, 0.0), Median(values), Percentile(values, 1.0));
  return buffer;
}

double PerCall(double total, std::uint64_t calls) {
  return calls > 0 ? total / static_cast<double>(calls) : 0.0;
}

// Untraced: passes back to back for the run's seconds. Traced: each round
// runs an untraced pass and then a traced one, so the overhead is measured
// against neighbours under the same machine load.
Result MeasureFleet(const RunConfig& config, const FleetWorkload& w) {
  Result result;
  FleetSpans untraced_spans;
  FleetSpans traced_spans;
  std::vector<double> apps_per_s;
  std::vector<double> decisions_per_s;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  std::vector<double> traced_apps_per_s;
  std::vector<double> waits;
  std::size_t peak_pending = 0;
  double traced_thread_us = 0.0;
  femux::SimMetrics first_total;
  bool have_total = false;
  bool totals_equal = true;
  int passes = 0;

  const auto run = [&](bool trace) {
    const std::size_t apps = w.source->app_count();
    try {
      const Pass pass = RunPass(w, trace, trace ? &traced_spans : &untraced_spans);
      result.CountAttempts(pass.result.apps, apps - pass.result.apps);
      if (!have_total) {
        first_total = pass.result.total;
        have_total = true;
      }
      totals_equal = totals_equal && SameBits(first_total, pass.result.total);
      ++passes;
      const double rate = static_cast<double>(pass.result.apps) / pass.seconds;
      if (trace) {
        traced_apps_per_s.push_back(rate);
        waits.push_back(static_cast<double>(pass.result.backpressure_waits));
        peak_pending = std::max(peak_pending, pass.result.peak_pending_chunks);
        traced_thread_us += pass.seconds * 1e6 * static_cast<double>(w.options.threads);
      } else {
        apps_per_s.push_back(rate);
        decisions_per_s.push_back(static_cast<double>(pass.result.epochs) / pass.seconds);
        p50_ms.push_back(pass.latency_p50_ms);
        p99_ms.push_back(pass.latency_p99_ms);
      }
    } catch (const std::exception& e) {
      // The fleet API aborts the whole pass on the first throwing app.
      result.CountAttempts(apps, apps);
      result.Check(false, std::string("fleet pass threw: ") + e.what());
    }
  };
  if (config.trace) {
    RepeatFor(config.seconds, 1, [&] {
      run(false);
      run(true);
    });
  } else {
    RepeatFor(config.seconds, 2, [&] { run(false); });
  }
  result.Check(have_total && totals_equal,
               "fleet SimMetrics total bit-identical across " +
                   std::to_string(passes) + " passes");

  const SliceSource slice(*w.source, w.check_apps);
  FleetStreamOptions serial = w.options;
  serial.threads = 1;
  const FleetStreamResult one = femux::SimulateFleetStream(slice, w.factory, serial);
  const FleetStreamResult many = femux::SimulateFleetStream(slice, w.factory, w.options);
  result.Check(SameBits(one.total, many.total),
               "fleet total of the first " + std::to_string(slice.app_count()) +
                   " apps: 1 thread == " + std::to_string(w.options.threads) +
                   " threads");

  result.Note("samples: " + std::to_string(apps_per_s.size()) + " untraced passes, " +
              std::to_string(traced_apps_per_s.size()) + " traced passes of " +
              std::to_string(w.source->app_count()) + " apps; tick = one app, " +
              "percentiles per pass, median over passes; apps/s per pass: " +
              Spread(apps_per_s));
  if (!config.trace) {
    result.Add("apps_per_s", Median(apps_per_s), "1/s");
    result.Add("decisions_per_s", Median(decisions_per_s), "1/s");
    result.Add("tick_p50_ms", Median(p50_ms), "ms");
    result.Add("tick_p99_ms", Median(p99_ms), "ms");
    result.Add("rum", femux::Rum::Default().Evaluate(first_total), "rum");
    result.Add("setup_s", w.setup_s, "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }
  const FleetSpans& s = traced_spans;
  const double apps = static_cast<double>(s.apps);
  result.Add("trace.make_app_us", s.make_app_us / apps, "us");
  result.Add("sim.series_us", s.series_us / apps, "us");
  result.Add("sim.simulate_self_us", s.simulate_self_us / apps, "us");
  result.Add("sim.worker_idle_share", 1.0 - s.busy_us / traced_thread_us, "share");
  result.Add("sim.backpressure_waits", Median(waits), "count");
  result.Add("sim.peak_pending_chunks", static_cast<double>(peak_pending), "count");
  result.Add("core.decide_us", PerCall(s.decide_us, s.decide_calls), "us");
  result.Add("core.block_switch_us", PerCall(s.block_switch_us, s.block_switch_calls),
             "us");
  result.Add("core.switch_share",
             PerCall(static_cast<double>(s.switches), s.block_switch_calls), "share");
  result.Add("trace.apps_per_s", Median(traced_apps_per_s), "1/s");
  result.Add("trace.overhead_share", 1.0 - Median(traced_apps_per_s) / Median(apps_per_s),
             "share");
  return result;
}

}  // namespace

Result RunFemuxFleet(const RunConfig& config) {
  femux::AzureGeneratorOptions train_gen;
  train_gen.num_apps = kFemuxTrainApps;
  train_gen.duration_days = kFemuxTrainDays;
  train_gen.seed = kTrainPopulationSeed;
  const femux::AzureTraceSource train_source(train_gen);

  femux::TrainerOptions trainer = femux::BenchTrainerOptions();
  trainer.feature_mode = femux::FeatureMode::kSketch;
  trainer.threads = config.threads;
  femux::StreamTrainOptions stream;
  stream.chunk_apps = kFemuxTrainChunkApps;

  // Set-up is training the model the fleet serves.
  std::shared_ptr<const femux::FemuxModel> model;
  std::string model_bytes;
  bool models_equal = true;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    femux::StreamTrainResult trained =
        femux::TrainFemuxStream(train_source, femux::Rum::Default(), trainer, stream);
    const std::string bytes = ModelBytes(trained.model);
    models_equal = models_equal && (model_bytes.empty() || bytes == model_bytes);
    model_bytes = bytes;
    model = std::make_shared<const femux::FemuxModel>(std::move(trained.model));
  });

  femux::AzureGeneratorOptions fleet_gen;
  fleet_gen.num_apps = kFemuxFleetApps;
  fleet_gen.duration_days = kFemuxFleetDays;
  fleet_gen.seed = kFleetPopulationSeed;
  const femux::AzureTraceSource population(fleet_gen);
  const PermutedSource fleet_source(population, DeriveSeed(config.seed, 2));

  FleetWorkload w;
  w.source = &fleet_source;
  w.factory = [model](int) { return std::make_unique<femux::FemuxPolicy>(model); };
  w.options.threads = config.threads;
  w.options.chunk_apps = kFemuxChunkApps;
  w.block_epochs = model->block_minutes;
  w.check_apps = kFemuxFleetCheckApps;
  w.setup_s = setup_s;
  Result result = MeasureFleet(config, w);

  result.Check(models_equal, "SaveModel bytes identical across " +
                                 std::to_string(kSetupReps) + " trainings");
  const SliceSource slice(train_source, kFemuxModelCheckApps);
  femux::TrainerOptions serial = trainer;
  serial.threads = 1;
  const std::string one = ModelBytes(
      femux::TrainFemuxStream(slice, femux::Rum::Default(), serial, stream).model);
  const std::string many = ModelBytes(
      femux::TrainFemuxStream(slice, femux::Rum::Default(), trainer, stream).model);
  result.Check(one == many, "SaveModel bytes of a " +
                                std::to_string(kFemuxModelCheckApps) +
                                "-app training: 1 thread == " +
                                std::to_string(config.threads) + " threads");
  return result;
}

Result RunStreamFleet(const RunConfig& config) {
  femux::HuaweiGeneratorOptions gen;
  gen.num_apps = kStreamApps;
  gen.duration_minutes = kStreamMinutes;
  gen.seed = DeriveSeed(config.seed, 3);

  const femux::HuaweiTraceSource source(gen);
  const femux::ForecasterPolicy policy(femux::MakeForecasterByName("moving_average_1"));
  FleetWorkload w;
  w.source = &source;
  w.factory = [&policy](int) { return policy.Clone(); };
  w.options.sim.epoch_seconds = kStreamEpochSeconds;
  w.options.threads = config.threads;
  w.options.chunk_apps = kStreamChunkApps;
  w.check_apps = kStreamCheckApps;
  // Set-up sweeps a warm-up slice, so the worker arenas and the pool are at
  // steady state before timing.
  const SliceSource warmup(source, kStreamWarmupApps);
  w.setup_s = MedianSetupSeconds(kSetupReps, [&] {
    femux::SimulateFleetStreamUniform(warmup, policy, w.options);
  });
  return MeasureFleet(config, w);
}

}  // namespace perfbench
