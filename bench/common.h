// Shared infrastructure for the bench suite.
//
// Every bench binary regenerates one table or figure from the paper. They
// share two standard workloads (an Azure-'19-style simulation population
// and an IBM-style 62-day characterization population) and a disk cache of
// trained FeMux models so the expensive offline training runs once per RUM
// across the whole suite.
#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/femux.h"
#include "src/core/serialize.h"
#include "src/core/trainer.h"
#include "src/serve/scaler_daemon.h"
#include "src/trace/azure_generator.h"
#include "src/trace/ibm_generator.h"
#include "src/trace/split.h"

namespace femux {

// Standard Azure-style evaluation population (sized for a single-core CI
// machine; the paper used 13-19k apps over 12 days on a large server).
AzureGeneratorOptions BenchAzureOptions();
Dataset BenchAzureDataset();

// Standard IBM-style characterization population: 62 days, detailed
// invocation windows for IAT/delay statistics.
IbmGeneratorOptions BenchIbmOptions();
Dataset BenchIbmDataset();

// Train/test split of the Azure population (train includes validation).
struct BenchSplit {
  std::vector<int> train;
  std::vector<int> test;
};
BenchSplit BenchAzureSplit(const Dataset& dataset);

// Standard trainer configuration for benches.
TrainerOptions BenchTrainerOptions();

struct TrainedFemux {
  std::shared_ptr<FemuxModel> model;
  BlockTable table;
  bool from_cache = false;
  double train_seconds = 0.0;  // 0 when loaded from cache.
  double cluster_seconds = 0.0;
};

// Loads the trained model + block table for `rum` from bench_cache/, or
// trains on the standard Azure population and persists it. All benches
// using the same RUM therefore share one training pass.
TrainedFemux GetOrTrainFemux(const Rum& rum);

// Per-block RUM/feature table for the *test* apps of the standard split
// (used by block-level ablations: feature subsets, classifier choice).
// Cached alongside the trained models.
BlockTable GetOrBuildEvalTable(const Rum& rum);

// Block-level evaluation shared by the ablation benches: per test app,
// walk blocks in order, select a (forecaster, margin) candidate for each
// block from the *previous* block's features (the online FeMux protocol),
// and sum the table's RUM for the selected candidates. `select` maps a raw
// feature row to a flattened candidate index.
double EvaluateBlockSelection(
    const BlockTable& eval_table,
    const std::function<int(const std::vector<double>&)>& select,
    int default_candidate);

// Builds a forecaster by name with the bench-standard refit stride for the
// expensive fitters (AR/SETAR/FFT), matching what trained models use.
std::unique_ptr<Forecaster> BenchForecaster(const std::string& name);

// Pretty-printing helpers: every bench prints "paper vs measured" rows so
// EXPERIMENTS.md can be filled mechanically.
void PrintHeader(const std::string& experiment, const std::string& claim);
void PrintRow(const std::string& label, double paper, double measured,
              const std::string& unit = "");
void PrintNote(const std::string& text);

// Renders the process's SIMD capability report (detected ISA, active ISA,
// lane width, FEMUX_SIMD setting, and the dispatch decision per kernel) as
// a single-line JSON object, for embedding in every bench JSON under a
// "simd" key so perf numbers are machine-attributable.
std::string SimdInfoJson();

// Renders a scaler daemon's health as a one-line JSON object: app/tick
// totals plus the full DaemonCounters block (drops, retries, degradations,
// quarantines, checkpoint bytes, per-phase timings). Benches embed it under
// a "health" key so resilience numbers ship next to the perf numbers.
std::string DaemonHealthJson(const ScalerDaemon& daemon);

// Portable process-memory probes for the scale benches (bench_fleet_scale's
// flat-memory gate). On Linux they read /proc/self/status (VmRSS / VmHWM in
// kB); elsewhere they fall back to getrusage(ru_maxrss), which only gives
// the peak. Returns 0 when no source is available — callers must treat 0 as
// "unknown", not "zero bytes".
std::size_t CurrentRssBytes();
std::size_t PeakRssBytes();

}  // namespace femux

#endif  // BENCH_COMMON_H_
