#include "bench/common.h"

#include "src/forecast/registry.h"
#include "src/stats/simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace femux {
namespace {

constexpr char kCacheDir[] = "bench_cache";

std::string CachePath(const Rum& rum, const char* suffix) {
  return std::string(kCacheDir) + "/" + rum.label() + suffix;
}

}  // namespace

AzureGeneratorOptions BenchAzureOptions() {
  AzureGeneratorOptions options;
  options.num_apps = 60;
  options.duration_days = 6;
  options.seed = 7;
  return options;
}

Dataset BenchAzureDataset() { return GenerateAzureDataset(BenchAzureOptions()); }

IbmGeneratorOptions BenchIbmOptions() {
  IbmGeneratorOptions options;
  options.num_apps = 300;
  options.duration_days = 62;
  options.detail_window_minutes = 120;
  options.seed = 42;
  return options;
}

Dataset BenchIbmDataset() { return GenerateIbmDataset(BenchIbmOptions()); }

BenchSplit BenchAzureSplit(const Dataset& dataset) {
  const DatasetSplit split = SplitDataset(dataset, 1);
  BenchSplit out;
  out.train = split.train;
  out.train.insert(out.train.end(), split.validation.begin(), split.validation.end());
  out.test = split.test;
  return out;
}

TrainerOptions BenchTrainerOptions() {
  TrainerOptions options;
  options.clusters = 10;
  options.refit_interval = 20;
  return options;
}

TrainedFemux GetOrTrainFemux(const Rum& rum) {
  TrainedFemux out;
  std::filesystem::create_directories(kCacheDir);
  const std::string model_path = CachePath(rum, ".model");
  const std::string table_path = CachePath(rum, ".table");

  auto model = std::make_shared<FemuxModel>();
  if (LoadModelFile(model_path, model.get()) &&
      LoadBlockTableFile(table_path, &out.table)) {
    out.model = std::move(model);
    out.from_cache = true;
    return out;
  }

  const Dataset dataset = BenchAzureDataset();
  const BenchSplit split = BenchAzureSplit(dataset);
  TrainerOptions trainer = BenchTrainerOptions();
  if (rum.kind() == RumKind::kExecutionAware) {
    trainer.features.push_back(Feature::kExecTime);
  }
  const TrainResult trained = TrainFemux(dataset, split.train, rum, trainer);
  out.model = std::make_shared<FemuxModel>(trained.model);
  out.table = trained.table;
  out.train_seconds = trained.forecast_sim_seconds;
  out.cluster_seconds = trained.clustering_seconds;
  SaveModelFile(*out.model, model_path);
  SaveBlockTableFile(out.table, table_path);
  std::printf("[train] rum=%s forecast_sim=%.1fs clustering=%.1fs\n",
              rum.label().c_str(), out.train_seconds, out.cluster_seconds);
  return out;
}

BlockTable GetOrBuildEvalTable(const Rum& rum) {
  std::filesystem::create_directories(kCacheDir);
  const std::string path = CachePath(rum, "_test.table");
  BlockTable table;
  if (LoadBlockTableFile(path, &table)) {
    return table;
  }
  const Dataset dataset = BenchAzureDataset();
  const BenchSplit split = BenchAzureSplit(dataset);
  TrainerOptions trainer = BenchTrainerOptions();
  if (rum.kind() == RumKind::kExecutionAware) {
    trainer.features.push_back(Feature::kExecTime);
  }
  // Reuse the trainer's table-building pass on the test apps; the model it
  // fits is discarded.
  const TrainResult result = TrainFemux(dataset, split.test, rum, trainer);
  SaveBlockTableFile(result.table, path);
  return result.table;
}

double EvaluateBlockSelection(
    const BlockTable& eval_table,
    const std::function<int(const std::vector<double>&)>& select,
    int default_candidate) {
  double total = 0.0;
  for (std::size_t a = 0; a < eval_table.rum.size(); ++a) {
    int current = default_candidate;
    for (std::size_t b = 0; b < eval_table.rum[a].size(); ++b) {
      const auto& rums = eval_table.rum[a][b];
      if (current < 0 || static_cast<std::size_t>(current) >= rums.size()) {
        current = 0;
      }
      total += rums[current];
      // Select for the next block from this block's features.
      current = select(eval_table.features[a][b]);
    }
  }
  return total;
}

std::unique_ptr<Forecaster> BenchForecaster(const std::string& name) {
  return MakeForecasterByName(name, BenchTrainerOptions().refit_interval);
}

void PrintHeader(const std::string& experiment, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("claim: %s\n", claim.c_str());
  std::printf("----------------------------------------------------------------\n");
}

void PrintRow(const std::string& label, double paper, double measured,
              const std::string& unit) {
  std::printf("%-44s paper=%10.3f  measured=%10.3f %s\n", label.c_str(), paper,
              measured, unit.c_str());
}

void PrintNote(const std::string& text) { std::printf("note: %s\n", text.c_str()); }

std::string SimdInfoJson() {
  const simd::SimdCaps caps = simd::GetSimdCaps();
  const simd::KernelTable& active = simd::ActiveTable();
  // The dispatch is per-table, so every kernel resolves to the active ISA;
  // listing them individually keeps the attribution explicit if per-kernel
  // dispatch ever diverges.
  static constexpr const char* kKernelNames[] = {
      "butterfly_stage", "cmul_inplace", "cmul_to",          "cdiv_mul_to",
      "real_cmul_to",    "slide_update", "ses_sweep",        "holt_sweep",
      "bds_count_within", "kmeans_distances", "axpy", "dot_unordered"};
  std::string out = "{\"detected_isa\": \"" + caps.detected_isa +
                    "\", \"active_isa\": \"" + caps.active_isa +
                    "\", \"lanes\": " + std::to_string(caps.lanes) +
                    ", \"enabled\": " + (caps.enabled ? "true" : "false") +
                    ", \"femux_simd_env\": \"" + caps.env +
                    "\", \"kernels\": {";
  bool first = true;
  for (const char* name : kKernelNames) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += std::string("\"") + name + "\": \"" + active.isa + "\"";
  }
  out += "}}";
  return out;
}

std::string DaemonHealthJson(const ScalerDaemon& daemon) {
  return "{\"apps\": " + std::to_string(daemon.app_count()) +
         ", \"ticks\": " + std::to_string(daemon.tick_count()) +
         ", \"counters\": " + daemon.counters().ToJson() + "}";
}

namespace {

// Parses a "Vm...:  <kB> kB" line from /proc/self/status. Returns 0 when
// the file or field is unavailable (non-Linux).
std::size_t ProcStatusKb(const char* field) {
  std::ifstream status("/proc/self/status");
  if (!status.is_open()) {
    return 0;
  }
  const std::size_t field_len = std::strlen(field);
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, field_len, field) == 0) {
      return static_cast<std::size_t>(
          std::strtoull(line.c_str() + field_len, nullptr, 10));
    }
  }
  return 0;
}

std::size_t RusageMaxRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::size_t>(usage.ru_maxrss);
#else
  // Linux (and most BSDs) report kilobytes.
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

}  // namespace

std::size_t CurrentRssBytes() {
  const std::size_t kb = ProcStatusKb("VmRSS:");
  return kb != 0 ? kb * 1024 : 0;
}

std::size_t PeakRssBytes() {
  const std::size_t kb = ProcStatusKb("VmHWM:");
  return kb != 0 ? kb * 1024 : RusageMaxRssBytes();
}

}  // namespace femux
