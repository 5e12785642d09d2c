// femux_train: TrainFemuxStream in exact feature mode (ADF/BDS/FFT), the
// paper's offline path, repeated as back-to-back training jobs.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/tracing.h"
#include "perfbench/workloads.h"
#include "bench/common.h"
#include "src/core/features.h"
#include "src/core/femux.h"
#include "src/core/rum.h"
#include "src/core/trainer.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_stream.h"
#include "src/trace/stream.h"

namespace perfbench {
namespace {

// A fixed population in a seeded order (see PermutedSource); seed 7 is the
// bench suite's standard Azure population, and the held-out apps the
// trained model serves come from another fixed one.
constexpr std::uint64_t kPopulationSeed = 7;
constexpr std::uint64_t kHeldOutPopulationSeed = 11;
constexpr int kTrainApps = 32;
constexpr int kTrainDays = 6;
constexpr std::size_t kTrainChunkApps = 2;  // 16 chunks over the pool.
constexpr std::size_t kWarmupApps = 4;      // Set-up job; also the 1-thread check.
constexpr int kRumApps = 8;                 // Held-out apps the model serves.
constexpr std::size_t kLayerApps = 2;       // Traced per-layer slice.
constexpr int kSetupReps = 3;
constexpr double kEpochSeconds = 60.0;

struct LayerTimes {
  std::map<std::string, double> plan_us;  // Per forecaster, per app.
  double block_rum_us = 0.0;              // Per BlockRum call.
  double features_exact_us = 0.0;         // Per block.
  double fit_s = 0.0;
};

// Reruns the trainer's per-app stages through their public entry points on
// the first `apps` apps, one thread, timing each stage.
LayerTimes MeasureLayers(const femux::TraceSource& source, std::size_t apps,
                         const femux::TrainerOptions& trainer,
                         const femux::FemuxModel& config) {
  LayerTimes out;
  const femux::Rum rum = femux::Rum::Default();
  const femux::FeatureExtractor extractor(config.features, femux::FeatureMode::kExact);
  femux::FeatureExtractor::Workspace workspace;
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<double>> row_rums;
  std::uint64_t rum_calls = 0;
  std::uint64_t blocks = 0;
  for (std::size_t i = 0; i < apps; ++i) {
    const femux::AppTrace app = source.MakeApp(i);
    femux::SimOptions sim = trainer.sim;
    sim.memory_gb_per_unit = app.consumed_memory_mb > 0.0
                                 ? app.consumed_memory_mb / 1024.0
                                 : sim.memory_gb_per_unit;
    const std::vector<double> demand = femux::DemandSeries(app, sim.epoch_seconds);
    const std::vector<double> arrivals = femux::ArrivalSeries(app, sim.epoch_seconds);
    std::vector<std::vector<double>> plans;
    for (const std::string& name : config.forecaster_names) {
      const auto start = Clock::now();
      plans.push_back(
          femux::SimulateForecasts({name}, demand, trainer.refit_interval).front());
      out.plan_us[name] += MicrosBetween(start, Clock::now()) / static_cast<double>(apps);
    }
    std::vector<double> scaled(config.block_minutes);
    const std::size_t count = femux::BlockCount(demand.size(), config.block_minutes);
    for (std::size_t b = 0; b < count; ++b) {
      const auto demand_block = femux::BlockSlice(demand, b, config.block_minutes);
      const auto arrivals_block = femux::BlockSlice(arrivals, b, config.block_minutes);
      std::vector<double> rums;
      for (const std::vector<double>& plan : plans) {
        const auto plan_block = femux::BlockSlice(plan, b, config.block_minutes);
        for (const double margin : config.margins) {
          for (std::size_t t = 0; t < plan_block.size(); ++t) {
            scaled[t] = plan_block[t] * margin;
          }
          const auto start = Clock::now();
          rums.push_back(femux::BlockRum(rum, demand_block, arrivals_block, scaled, sim));
          out.block_rum_us += MicrosBetween(start, Clock::now());
          ++rum_calls;
        }
      }
      const auto start = Clock::now();
      extractor.ExtractInto(demand_block, 0.0, &workspace);
      out.features_exact_us += MicrosBetween(start, Clock::now());
      ++blocks;
      rows.push_back(workspace.out);
      row_rums.push_back(std::move(rums));
    }
  }
  out.block_rum_us /= static_cast<double>(rum_calls);
  out.features_exact_us /= static_cast<double>(blocks);
  femux::FemuxModel fitted = config;
  std::vector<std::size_t> sizes;
  const auto start = Clock::now();
  femux::FitFromRows(rows, row_rums, trainer, &fitted, &sizes);
  out.fit_s = SecondsSince(start);
  return out;
}

}  // namespace

Result RunFemuxTrain(const RunConfig& config) {
  Result result;
  femux::AzureGeneratorOptions gen;
  gen.num_apps = kTrainApps;
  gen.duration_days = kTrainDays;
  gen.seed = kPopulationSeed;
  const femux::AzureTraceSource population(gen);
  const PermutedSource source(population, DeriveSeed(config.seed, 4));
  femux::TrainerOptions trainer = femux::BenchTrainerOptions();
  trainer.threads = config.threads;
  femux::StreamTrainOptions stream;
  stream.chunk_apps = kTrainChunkApps;
  const femux::Rum rum = femux::Rum::Default();

  // Set-up is a small warm-up job: it starts the pool and fills the FFT
  // plan cache the timed jobs then reuse. It takes the population's first
  // apps, so its cost does not depend on the seed.
  const SliceSource warmup(population, kWarmupApps);
  std::string warm_bytes;
  bool warm_equal = true;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    const std::string bytes =
        ModelBytes(femux::TrainFemuxStream(warmup, rum, trainer, stream).model);
    warm_equal = warm_equal && (warm_bytes.empty() || bytes == warm_bytes);
    warm_bytes = bytes;
  });

  FleetSpans spans;
  std::vector<double> job_s;
  std::vector<double> traced_job_s;
  std::size_t peak_pending = 0;
  std::string model_bytes;
  bool models_equal = true;
  std::shared_ptr<const femux::FemuxModel> model;
  const auto job = [&](bool trace) {
    const TimedSource timed(source, &spans, true);
    const femux::TraceSource& input =
        trace ? static_cast<const femux::TraceSource&>(timed) : source;
    try {
      const auto start = Clock::now();
      femux::StreamTrainResult trained =
          femux::TrainFemuxStream(input, rum, trainer, stream);
      const double seconds = SecondsSince(start);
      result.CountAttempts(trained.apps, source.app_count() - trained.apps);
      (trace ? traced_job_s : job_s).push_back(seconds);
      if (trace) {
        peak_pending = std::max(peak_pending, trained.peak_pending_chunks);
      }
      const std::string bytes = ModelBytes(trained.model);
      models_equal = models_equal && (model_bytes.empty() || bytes == model_bytes);
      model_bytes = bytes;
      if (model == nullptr) {
        model = std::make_shared<const femux::FemuxModel>(std::move(trained.model));
      }
    } catch (const std::exception& e) {
      result.CountAttempts(source.app_count(), source.app_count());
      result.Check(false, std::string("training job threw: ") + e.what());
    }
  };
  if (config.trace) {
    RepeatFor(config.seconds, 1, [&] {
      job(false);
      job(true);
    });
  } else {
    RepeatFor(config.seconds, 2, [&] { job(false); });
  }

  result.Check(model != nullptr && models_equal,
               "SaveModel bytes identical across " +
                   std::to_string(job_s.size() + traced_job_s.size()) + " jobs");
  result.Check(warm_equal, "SaveModel bytes identical across set-up jobs");
  femux::TrainerOptions serial = trainer;
  serial.threads = 1;
  const std::string one =
      ModelBytes(femux::TrainFemuxStream(warmup, rum, serial, stream).model);
  result.Check(one == warm_bytes, "SaveModel bytes of the " +
                                      std::to_string(kWarmupApps) +
                                      "-app job: 1 thread == " +
                                      std::to_string(config.threads) + " threads");
  if (model == nullptr) {
    return result;
  }
  result.Note("samples: " + std::to_string(job_s.size()) + " untraced, " +
              std::to_string(traced_job_s.size()) + " traced jobs of " +
              std::to_string(kTrainApps) + " apps; tick = one job");

  const auto rate = [](const std::vector<double>& seconds, double work) {
    return work / Median(seconds);
  };
  const double apps = static_cast<double>(kTrainApps);
  if (config.trace) {
    const double traced_apps = apps * static_cast<double>(traced_job_s.size());
    result.Add("trace.make_app_us", spans.make_app_us / traced_apps, "us");
    const LayerTimes layers = MeasureLayers(source, kLayerApps, trainer, *model);
    for (const auto& [name, us] : layers.plan_us) {
      result.Add("forecast." + name + ".plan_us", us, "us");
    }
    result.Add("core.block_rum_us", layers.block_rum_us, "us");
    result.Add("core.features_exact_us", layers.features_exact_us, "us");
    result.Add("core.fit_s", layers.fit_s, "s");
    result.Add("core.train_peak_pending_chunks", static_cast<double>(peak_pending),
               "count");
    result.Add("trace.apps_per_s", rate(traced_job_s, apps), "1/s");
    result.Add("trace.overhead_share", 1.0 - Median(job_s) / Median(traced_job_s),
               "share");
    return result;
  }

  // The quality end of training: the trained model serving held-out apps.
  femux::AzureGeneratorOptions held_out = gen;
  held_out.num_apps = kRumApps;
  held_out.seed = kHeldOutPopulationSeed;
  const femux::AzureTraceSource held_out_source(held_out);
  femux::FleetStreamOptions fleet;
  fleet.threads = config.threads;
  fleet.chunk_apps = 1;
  const femux::FleetStreamResult served = femux::SimulateFleetStream(
      held_out_source,
      [&model](int) { return std::make_unique<femux::FemuxPolicy>(model); }, fleet);

  const double epochs_per_app = kTrainDays * 86400.0 / kEpochSeconds;
  const double forecasts = apps * epochs_per_app *
                           static_cast<double>(model->forecaster_names.size());
  result.Add("apps_per_s", rate(job_s, apps), "1/s");
  result.Add("decisions_per_s", rate(job_s, forecasts), "1/s");
  result.Add("tick_p50_ms", Percentile(job_s, 0.50) * 1000.0, "ms");
  result.Add("tick_p99_ms", Percentile(job_s, 0.99) * 1000.0, "ms");
  result.Add("rum", rum.Evaluate(served.total), "rum");
  result.Add("setup_s", setup_s, "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
