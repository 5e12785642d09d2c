// Offline FeMux training (§4.3.4, §4.3.6).
//
// Pipeline: for every training application, simulate each candidate
// forecaster's rolling one-step forecasts over its concurrency series,
// score every (block, forecaster) pair with the RUM by replaying the block
// through the platform simulator, extract per-block features, standardize
// them, cluster with K-means, and assign each cluster the forecaster with
// the lowest total RUM among its member blocks. Decision-tree and
// random-forest classifiers (trained on per-block argmin labels) are
// available for the supervised-baseline comparison.
//
// There is one trainer. Apps fan out through the ordered chunk fold of
// src/sim/stream_fold.h, which hands each app's block rows to the fit in
// app-index order; TrainFemuxStream runs it on any TraceSource, and the
// resident entry points (TrainFemux, BuildBlockTable, RetrainWithNewApps)
// run it on DatasetTraceSource(Subset(dataset, app_indices)).
#ifndef SRC_CORE_TRAINER_H_
#define SRC_CORE_TRAINER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/model.h"
#include "src/sim/simulator.h"
#include "src/trace/stream.h"
#include "src/trace/trace.h"

namespace femux {

struct TrainerOptions {
  std::size_t block_minutes = kDefaultBlockMinutes;
  std::size_t clusters = 10;
  std::size_t refit_interval = 5;       // AR/SETAR coefficient-refit stride.
  std::vector<Feature> features = DefaultFeatureSet();
  // kSketch trains on the O(1) streaming feature analogues; the mode is
  // recorded in the model so serving extracts the same statistics.
  FeatureMode feature_mode = FeatureMode::kExact;
  ClassifierKind classifier = ClassifierKind::kKMeans;
  SimOptions sim;                       // Epoch length, cold-start cost, ...
  std::size_t threads = 0;
  std::uint64_t seed = 11;
  // Candidate forecasters; empty = the paper's default set.
  std::vector<std::string> forecaster_names;
  // Candidate forecast scale margins, tuned per cluster on the RUM
  // (the paper tunes forecaster parameters on RUM; asymmetric cold-start
  // vs memory costs reward upward-biased forecasts).
  std::vector<double> margins = {1.0, 1.25, 1.5};
};

// Per-app, per-block, per-candidate RUM values plus per-block features.
// Candidates are (forecaster, margin) pairs flattened as
// f * margins.size() + m. Kept by the trainer and reused by analysis
// benches (forecaster-switching statistics, ablations).
struct BlockTable {
  // rum[app][block][candidate]; apps follow the order of `app_indices`
  // passed to TrainFemux.
  std::vector<std::vector<std::vector<double>>> rum;
  std::vector<std::vector<std::vector<double>>> features;
};

struct TrainResult {
  FemuxModel model;
  BlockTable table;
  std::vector<std::size_t> cluster_sizes;
  double forecast_sim_seconds = 0.0;
  double clustering_seconds = 0.0;
};

// The trainer over a resident dataset: TrainFemuxStream's fit (learned
// post-pass included) plus the full block table of `app_indices`.
TrainResult TrainFemux(const Dataset& dataset, const std::vector<int>& app_indices,
                       const Rum& rum, const TrainerOptions& options);

// Builds only the block table (plans, per-block RUMs, features) without
// fitting a classifier.
BlockTable BuildBlockTable(const Dataset& dataset, const std::vector<int>& app_indices,
                           const Rum& rum, const TrainerOptions& options,
                           FemuxModel* model_config);

// (Re)fits the classifier of `model` from a block table. This is the cheap
// phase (§4.3.6: clustering takes minutes even at fleet scale), which makes
// incremental retraining possible: merge new blocks into the table and
// refit.
void FitFromTable(const BlockTable& table, const TrainerOptions& options,
                  FemuxModel* model, std::vector<std::size_t>* cluster_sizes);

// (Re)fits the classifier from already-flattened block rows (features and
// per-candidate RUMs, parallel vectors). FitFromTable flattens and calls
// this; the trainer feeds it directly.
void FitFromRows(const std::vector<std::vector<double>>& rows,
                 const std::vector<std::vector<double>>& row_rums,
                 const TrainerOptions& options, FemuxModel* model,
                 std::vector<std::size_t>* cluster_sizes);

// Training over a TraceSource: apps are generated, forecast-simulated, and
// block-scored chunk by chunk, and only the flattened block rows are
// retained — the per-app traces, series, and plans are discarded with each
// chunk, so peak memory is O(chunk + retained rows) instead of O(fleet).
//
// After the fit, a post-pass (DESIGN.md §15) trains every K-means cluster
// whose chosen forecaster exposes opaque learned state once, offline, on
// the cluster's representative app (the app with the most retained rows in
// the cluster, ties to the lowest index), and stores the blob in
// model.cluster_learned_state, so serving never trains online. It is a
// no-op when no candidate forecaster is learned.
struct StreamTrainOptions {
  // Apps per generation/scoring chunk. 0 = auto: about four chunks per
  // participant, max(1, apps / (4 x threads)), at most 16.
  std::size_t chunk_apps = 16;
  // Cap on retained block rows. 0 keeps every row, making the fit
  // bit-identical to TrainFemux over the materialized dataset. When the
  // retained set would exceed the cap, the keep-stride doubles and retained
  // rows are re-decimated — deterministic for any thread count and chunk
  // size (rows are folded in app-index order; decimation depends only on a
  // row's global index).
  std::size_t max_rows = 0;
};

struct StreamTrainResult {
  FemuxModel model;
  std::vector<std::size_t> cluster_sizes;
  std::size_t apps = 0;
  std::size_t blocks_seen = 0;          // Block rows produced by the source.
  std::size_t rows_kept = 0;            // Rows that survived into the fit.
  std::size_t row_stride = 1;           // Final decimation stride.
  std::size_t peak_pending_chunks = 0;  // Ordered-fold transient residency.
  double forecast_sim_seconds = 0.0;
  double clustering_seconds = 0.0;
};

StreamTrainResult TrainFemuxStream(const TraceSource& source, const Rum& rum,
                                   const TrainerOptions& options,
                                   const StreamTrainOptions& stream = {});

// Appends `extra`'s apps/blocks to `base` (incremental data collection).
void MergeBlockTables(BlockTable* base, const BlockTable& extra);

// Incremental retraining: extend a previous training result with newly
// collected apps and refit the classifier, without re-simulating the old
// apps' forecasts. The refit may reassign clusters, so inherited learned
// blobs are dropped rather than re-trained.
TrainResult RetrainWithNewApps(const TrainResult& previous, const Dataset& dataset,
                               const std::vector<int>& new_app_indices,
                               const Rum& rum, const TrainerOptions& options);

// Rolling one-step forecasts for every named forecaster over one app's
// demand series (compute units per epoch). plans[f][t] is forecaster f's
// prediction for epoch t. Shared by the trainer and the analysis benches.
std::vector<std::vector<double>> SimulateForecasts(
    const std::vector<std::string>& forecaster_names,
    const std::vector<double>& demand, std::size_t refit_interval);

// RUM of one (block, plan) pair: replays the block slice through the
// simulator under `options` and evaluates `rum`.
double BlockRum(const Rum& rum, std::span<const double> demand_block,
                std::span<const double> arrivals_block,
                std::span<const double> plan_block, const SimOptions& options);

}  // namespace femux

#endif  // SRC_CORE_TRAINER_H_
