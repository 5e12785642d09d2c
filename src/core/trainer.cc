#include "src/core/trainer.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "src/forecast/registry.h"
#include "src/sim/fleet.h"
#include "src/sim/parallel.h"
#include "src/sim/stream_fold.h"
#include "src/trace/split.h"

namespace femux {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Rolling one-step forecasts of a single named forecaster. AR/SETAR/FFT are
// stride-aware and honor the requested refit interval.
std::vector<double> SimulateOnePlan(const std::string& name,
                                    const std::vector<double>& demand,
                                    std::size_t refit_interval) {
  const std::unique_ptr<Forecaster> forecaster =
      MakeForecasterByName(name, refit_interval);
  if (forecaster == nullptr) {
    return std::vector<double>(demand.size(), 0.0);
  }
  return RollingForecast(*forecaster, demand);
}

std::vector<std::string> DefaultNames() {
  std::vector<std::string> names;
  for (const auto& f : MakeFemuxForecasterSet()) {
    names.emplace_back(f->name());
  }
  return names;
}

// Applies the trainer options to a fresh model configuration.
void ConfigureModel(const Rum& rum, const TrainerOptions& options, FemuxModel* model) {
  model->forecaster_names =
      options.forecaster_names.empty() ? DefaultNames() : options.forecaster_names;
  model->refit_interval = options.refit_interval;
  model->features = options.features;
  model->feature_mode = options.feature_mode;
  model->block_minutes = options.block_minutes;
  model->rum = rum;
  model->classifier = options.classifier;
  model->margins =
      options.margins.empty() ? std::vector<double>{1.0} : options.margins;
}

// Rolling plans, per-block RUM rows, and per-block features for one app —
// the unit of work the training fold fans out. Block scoring is pure given
// the app's series, so results are bit-identical wherever the app came from.
struct AppBlockRows {
  std::vector<std::vector<double>> rum;       // [block][candidate]
  std::vector<std::vector<double>> features;  // [block][feature]
};

AppBlockRows BuildAppBlockRows(const AppTrace& app, const FemuxModel& model,
                               const Rum& rum, const TrainerOptions& options,
                               const FeatureExtractor& extractor, bool exec_aware) {
  const std::size_t num_forecasters = model.forecaster_names.size();
  const std::size_t num_margins = model.margins.size();
  const std::size_t num_candidates = num_forecasters * num_margins;

  SimOptions sim = options.sim;
  sim.min_scale = 0;
  sim.memory_gb_per_unit = app.consumed_memory_mb > 0.0
                               ? app.consumed_memory_mb / 1024.0
                               : sim.memory_gb_per_unit;
  const std::vector<double> demand = DemandSeries(app, sim.epoch_seconds);
  const std::vector<double> arrivals = ArrivalSeries(app, sim.epoch_seconds);
  // One rolling plan per forecaster per app, sliced per block below —
  // candidates (forecaster × margin) only rescale the slice.
  const std::vector<std::vector<double>> plans =
      SimulateForecasts(model.forecaster_names, demand, options.refit_interval);

  const std::size_t blocks = BlockCount(demand.size(), options.block_minutes);
  AppBlockRows out;
  out.rum.assign(blocks, std::vector<double>(num_candidates, 0.0));
  out.features.resize(blocks);
  const std::span<const double> demand_span(demand);
  const std::span<const double> arrivals_span(arrivals);
  // Blocks fan out below the app level (nested submission is safe on
  // the persistent pool): with few apps — incremental retraining,
  // ablation reruns — the app loop alone cannot fill the pool. Each
  // block job writes only its own rum/feature rows and block scoring
  // is pure given the slices, so the rows are bit-identical for any
  // thread count. Scratch is per worker thread, reused across the
  // blocks it claims.
  ParallelFor(
      blocks,
      [&](std::size_t b) {
        thread_local std::vector<double> scaled_plan;
        thread_local FeatureExtractor::Workspace workspace;
        scaled_plan.resize(options.block_minutes);
        const auto demand_block = BlockSlice(demand_span, b, options.block_minutes);
        const auto arrivals_block =
            BlockSlice(arrivals_span, b, options.block_minutes);
        for (std::size_t f = 0; f < num_forecasters; ++f) {
          const auto plan_block = BlockSlice(std::span<const double>(plans[f]), b,
                                             options.block_minutes);
          for (std::size_t m = 0; m < num_margins; ++m) {
            for (std::size_t i = 0; i < plan_block.size(); ++i) {
              scaled_plan[i] = plan_block[i] * model.margins[m];
            }
            out.rum[b][f * num_margins + m] =
                BlockRum(rum, demand_block, arrivals_block, scaled_plan, sim);
          }
        }
        extractor.ExtractInto(demand_block,
                              exec_aware ? app.mean_execution_ms : 0.0, &workspace);
        out.features[b] = workspace.out;
      },
      options.threads);
  return out;
}

bool IsExecAware(const FemuxModel& model) {
  return std::find(model.features.begin(), model.features.end(),
                   Feature::kExecTime) != model.features.end();
}

// The app-level fan-out of training: apps of `source` are scored chunk by
// chunk on the pool and handed to `sink` in strict app-index order.
// `chunk_apps` 0 = auto; `max_pending_chunks` bounds the results held back
// behind a slow chunk (0 = the fold's auto bound).
OrderedChunkStats FoldAppBlockRows(
    const TraceSource& source, const FemuxModel& model, const Rum& rum,
    const TrainerOptions& options, std::size_t chunk_apps,
    std::size_t max_pending_chunks,
    const std::function<void(std::size_t, AppBlockRows&&)>& sink) {
  const bool exec_aware = IsExecAware(model);
  const FeatureExtractor extractor(model.features, model.feature_mode);
  const std::size_t num_apps = source.app_count();
  if (chunk_apps == 0) {
    chunk_apps = BalancedChunkSize(num_apps, options.threads, 16);
  }
  OrderedChunkOptions fold_options;
  fold_options.threads = options.threads;
  fold_options.max_pending_chunks = max_pending_chunks;
  return ParallelOrderedChunks<std::vector<AppBlockRows>>(
      (num_apps + chunk_apps - 1) / chunk_apps, fold_options,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk_apps;
        const std::size_t end = std::min(num_apps, begin + chunk_apps);
        std::vector<AppBlockRows> chunk;
        chunk.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          // The app's trace, series, and rolling plans live only for this
          // iteration; its block rows are all that survive.
          chunk.push_back(BuildAppBlockRows(source.MakeApp(i), model, rum, options,
                                            extractor, exec_aware));
        }
        return chunk;
      },
      [&](std::size_t c, std::vector<AppBlockRows>&& chunk) {
        for (std::size_t k = 0; k < chunk.size(); ++k) {
          sink(c * chunk_apps + k, std::move(chunk[k]));
        }
      });
}

// Resident callers fold a copy of the selected apps. Their rows cost
// nothing to hold, so admission is never throttled.
std::size_t ResidentPendingBound(const Dataset& apps) {
  return std::max<std::size_t>(1, apps.apps.size());
}

// The learned-state post-pass (DESIGN.md §15) over the rows the fit saw;
// row_apps[r] is the source index of rows[r].
void TrainClusterLearnedState(const std::vector<std::vector<double>>& rows,
                              const std::vector<std::size_t>& row_apps,
                              const TraceSource& source,
                              const TrainerOptions& options, FemuxModel* model) {
  model->cluster_learned_state.clear();
  if (model->classifier != ClassifierKind::kKMeans) {
    return;
  }
  const std::size_t k = model->cluster_to_forecaster.size();
  if (k == 0 || !model->scaler.fitted()) {
    return;
  }
  // Which clusters picked a forecaster with trainable opaque state? With
  // the default (all closed-form) set this finds none and the pass costs a
  // handful of factory calls.
  std::vector<bool> needs(k, false);
  bool any = false;
  for (std::size_t c = 0; c < k; ++c) {
    const std::unique_ptr<Forecaster> probe =
        model->MakeForecaster(model->cluster_to_forecaster[c]);
    if (probe != nullptr && probe->HasOpaqueState()) {
      needs[c] = true;
      any = true;
    }
  }
  if (!any) {
    return;
  }
  model->cluster_learned_state.assign(k, std::string());

  // Per-cluster row counts by app, replaying the fit's cluster assignment.
  const std::size_t num_apps = source.app_count();
  std::vector<std::vector<std::size_t>> counts(
      k, std::vector<std::size_t>(num_apps, 0));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::size_t c = model->kmeans.Predict(model->scaler.Transform(rows[r]));
    if (c < k) {
      ++counts[c][row_apps[r]];
    }
  }

  for (std::size_t c = 0; c < k; ++c) {
    if (!needs[c]) {
      continue;
    }
    // Representative member: the app with the most rows in the cluster
    // (ties break to the lowest app index; empty clusters keep an empty
    // blob and the serving instance trains from its own window instead).
    std::size_t rep = num_apps;
    std::size_t best = 0;
    for (std::size_t a = 0; a < num_apps; ++a) {
      if (counts[c][a] > best) {
        best = counts[c][a];
        rep = a;
      }
    }
    if (rep >= num_apps) {
      continue;
    }
    const std::vector<double> demand =
        DemandSeries(source.MakeApp(rep), options.sim.epoch_seconds);
    std::unique_ptr<Forecaster> forecaster =
        model->MakeForecaster(model->cluster_to_forecaster[c]);
    if (forecaster == nullptr) {
      continue;
    }
    // The one-shot training path every learned forecaster runs on its
    // first batch call — triggered here offline, then frozen into the
    // model as an opaque blob.
    forecaster->Forecast(demand, 1);
    model->cluster_learned_state[c] = forecaster->SaveOpaqueState();
  }
}

// The trainer: folds block rows (decimated to `max_rows` when non-zero),
// fits, and runs the learned post-pass. `table`, when given, also receives
// every app's full rows.
StreamTrainResult TrainFromSource(const TraceSource& source, const Rum& rum,
                                  const TrainerOptions& options,
                                  std::size_t chunk_apps,
                                  std::size_t max_pending_chunks,
                                  std::size_t max_rows, BlockTable* table) {
  StreamTrainResult result;
  ConfigureModel(rum, options, &result.model);
  if (table != nullptr) {
    table->rum.resize(source.app_count());
    table->features.resize(source.app_count());
  }

  // Retained flattened rows, folded in app-index then block order.
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<double>> row_rums;
  std::vector<std::size_t> row_ids;   // Global block index of each kept row.
  std::vector<std::size_t> row_apps;  // Source app index of each kept row.
  std::size_t stride = 1;

  const auto sim_start = std::chrono::steady_clock::now();
  result.peak_pending_chunks =
      FoldAppBlockRows(
          source, result.model, rum, options, chunk_apps, max_pending_chunks,
          [&](std::size_t app, AppBlockRows&& app_rows) {
            ++result.apps;
            if (table != nullptr) {
              table->rum[app] = app_rows.rum;
              table->features[app] = app_rows.features;
            }
            for (std::size_t b = 0; b < app_rows.rum.size(); ++b) {
              const std::size_t id = result.blocks_seen++;
              if (id % stride != 0) {
                continue;
              }
              rows.push_back(std::move(app_rows.features[b]));
              row_rums.push_back(std::move(app_rows.rum[b]));
              row_ids.push_back(id);
              row_apps.push_back(app);
              if (max_rows != 0 && rows.size() > max_rows) {
                // Double the stride and re-decimate in place. Which rows
                // survive depends only on their global index, never on
                // timing, so the retained set is deterministic.
                stride *= 2;
                std::size_t kept = 0;
                for (std::size_t r = 0; r < rows.size(); ++r) {
                  if (row_ids[r] % stride == 0) {
                    if (kept != r) {  // Self-move would dangle the buffer.
                      rows[kept] = std::move(rows[r]);
                      row_rums[kept] = std::move(row_rums[r]);
                      row_ids[kept] = row_ids[r];
                      row_apps[kept] = row_apps[r];
                    }
                    ++kept;
                  }
                }
                rows.resize(kept);
                row_rums.resize(kept);
                row_ids.resize(kept);
                row_apps.resize(kept);
              }
            }
          })
          .peak_pending_chunks;
  result.forecast_sim_seconds = SecondsSince(sim_start);
  result.rows_kept = rows.size();
  result.row_stride = stride;

  const auto cluster_start = std::chrono::steady_clock::now();
  FitFromRows(rows, row_rums, options, &result.model, &result.cluster_sizes);
  TrainClusterLearnedState(rows, row_apps, source, options, &result.model);
  result.clustering_seconds = SecondsSince(cluster_start);
  return result;
}

}  // namespace

std::vector<std::vector<double>> SimulateForecasts(
    const std::vector<std::string>& forecaster_names,
    const std::vector<double>& demand, std::size_t refit_interval) {
  std::vector<std::vector<double>> plans;
  plans.reserve(forecaster_names.size());
  for (const std::string& name : forecaster_names) {
    plans.push_back(SimulateOnePlan(name, demand, refit_interval));
  }
  return plans;
}

double BlockRum(const Rum& rum, std::span<const double> demand_block,
                std::span<const double> arrivals_block,
                std::span<const double> plan_block, const SimOptions& options) {
  const SimMetrics metrics =
      SimulatePlan(demand_block, arrivals_block, plan_block, options);
  return rum.Evaluate(metrics);
}

BlockTable BuildBlockTable(const Dataset& dataset, const std::vector<int>& app_indices,
                           const Rum& rum, const TrainerOptions& options,
                           FemuxModel* model_config) {
  FemuxModel local;
  FemuxModel& model = model_config != nullptr ? *model_config : local;
  ConfigureModel(rum, options, &model);

  const Dataset subset = Subset(dataset, app_indices);
  BlockTable table;
  table.rum.resize(subset.apps.size());
  table.features.resize(subset.apps.size());
  FoldAppBlockRows(DatasetTraceSource(subset), model, rum, options, /*chunk_apps=*/0,
                   ResidentPendingBound(subset),
                   [&table](std::size_t a, AppBlockRows&& rows) {
                     table.rum[a] = std::move(rows.rum);
                     table.features[a] = std::move(rows.features);
                   });
  return table;
}

void FitFromTable(const BlockTable& table, const TrainerOptions& options,
                  FemuxModel* model, std::vector<std::size_t>* cluster_sizes) {
  // Flatten block rows (app-index order, then block order — the same order
  // the trainer folds rows in).
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<double>> row_rums;
  for (std::size_t a = 0; a < table.rum.size(); ++a) {
    for (std::size_t b = 0; b < table.rum[a].size(); ++b) {
      rows.push_back(table.features[a][b]);
      row_rums.push_back(table.rum[a][b]);
    }
  }
  FitFromRows(rows, row_rums, options, model, cluster_sizes);
}

void FitFromRows(const std::vector<std::vector<double>>& rows,
                 const std::vector<std::vector<double>>& row_rums,
                 const TrainerOptions& options, FemuxModel* model,
                 std::vector<std::size_t>* cluster_sizes) {
  const std::size_t num_margins = model->margins.size();
  if (rows.empty()) {
    return;
  }
  const std::size_t num_candidates = row_rums.front().size();

  // Default candidate: lowest total RUM across all blocks.
  std::vector<double> totals(num_candidates, 0.0);
  for (const auto& r : row_rums) {
    for (std::size_t c = 0; c < num_candidates; ++c) {
      totals[c] += r[c];
    }
  }
  const std::size_t default_pair = static_cast<std::size_t>(
      std::min_element(totals.begin(), totals.end()) - totals.begin());
  model->default_forecaster = static_cast<int>(default_pair / num_margins);
  model->default_margin = static_cast<int>(default_pair % num_margins);

  model->scaler.Fit(rows);
  const std::vector<std::vector<double>> scaled = model->scaler.Transform(rows);
  switch (options.classifier) {
    case ClassifierKind::kKMeans: {
      model->kmeans.Fit(scaled, options.clusters, options.seed);
      const std::size_t k = model->kmeans.cluster_count();
      // Assign each cluster the candidate with the lowest summed RUM.
      std::vector<std::vector<double>> cluster_totals(
          k, std::vector<double>(num_candidates, 0.0));
      std::vector<std::size_t> sizes(k, 0);
      for (std::size_t i = 0; i < scaled.size(); ++i) {
        const std::size_t c = model->kmeans.Predict(scaled[i]);
        ++sizes[c];
        for (std::size_t pair = 0; pair < num_candidates; ++pair) {
          cluster_totals[c][pair] += row_rums[i][pair];
        }
      }
      model->cluster_to_forecaster.resize(k);
      model->cluster_to_margin.resize(k);
      for (std::size_t c = 0; c < k; ++c) {
        std::size_t best = default_pair;
        if (sizes[c] != 0) {
          best = static_cast<std::size_t>(
              std::min_element(cluster_totals[c].begin(), cluster_totals[c].end()) -
              cluster_totals[c].begin());
        }
        model->cluster_to_forecaster[c] = static_cast<int>(best / num_margins);
        model->cluster_to_margin[c] = static_cast<int>(best % num_margins);
      }
      if (cluster_sizes != nullptr) {
        *cluster_sizes = std::move(sizes);
      }
      break;
    }
    case ClassifierKind::kDecisionTree:
    case ClassifierKind::kRandomForest: {
      // Supervised label: per-block argmin candidate.
      std::vector<int> labels(scaled.size());
      for (std::size_t i = 0; i < scaled.size(); ++i) {
        labels[i] = static_cast<int>(
            std::min_element(row_rums[i].begin(), row_rums[i].end()) -
            row_rums[i].begin());
      }
      if (options.classifier == ClassifierKind::kDecisionTree) {
        DecisionTree::Options tree_options;
        tree_options.seed = options.seed;
        model->tree.Fit(scaled, labels, tree_options);
      } else {
        RandomForest::Options forest_options;
        forest_options.seed = options.seed;
        model->forest.Fit(scaled, labels, forest_options);
      }
      break;
    }
  }
}

void MergeBlockTables(BlockTable* base, const BlockTable& extra) {
  base->rum.insert(base->rum.end(), extra.rum.begin(), extra.rum.end());
  base->features.insert(base->features.end(), extra.features.begin(),
                        extra.features.end());
}

TrainResult TrainFemux(const Dataset& dataset, const std::vector<int>& app_indices,
                       const Rum& rum, const TrainerOptions& options) {
  const Dataset subset = Subset(dataset, app_indices);
  TrainResult result;
  StreamTrainResult trained =
      TrainFromSource(DatasetTraceSource(subset), rum, options, /*chunk_apps=*/0,
                      ResidentPendingBound(subset), /*max_rows=*/0, &result.table);
  result.model = std::move(trained.model);
  result.cluster_sizes = std::move(trained.cluster_sizes);
  result.forecast_sim_seconds = trained.forecast_sim_seconds;
  result.clustering_seconds = trained.clustering_seconds;
  return result;
}

StreamTrainResult TrainFemuxStream(const TraceSource& source, const Rum& rum,
                                   const TrainerOptions& options,
                                   const StreamTrainOptions& stream) {
  // Auto-bounded admission: one slow chunk cannot let fast workers pile up
  // unbounded held-back row sets (each can be thousands of feature rows).
  return TrainFromSource(source, rum, options, stream.chunk_apps,
                         /*max_pending_chunks=*/0, stream.max_rows, nullptr);
}

TrainResult RetrainWithNewApps(const TrainResult& previous, const Dataset& dataset,
                               const std::vector<int>& new_app_indices,
                               const Rum& rum, const TrainerOptions& options) {
  TrainResult result;
  result.model = previous.model;  // Keep configuration; classifier refits.
  result.table = previous.table;

  const auto sim_start = std::chrono::steady_clock::now();
  const BlockTable extra =
      BuildBlockTable(dataset, new_app_indices, rum, options, nullptr);
  result.forecast_sim_seconds = SecondsSince(sim_start);
  MergeBlockTables(&result.table, extra);

  const auto cluster_start = std::chrono::steady_clock::now();
  FitFromTable(result.table, options, &result.model, &result.cluster_sizes);
  // The refit may have reassigned clusters; inherited learned blobs would
  // no longer match their clusters' forecasters, so drop them.
  result.model.cluster_learned_state.clear();
  result.clustering_seconds = SecondsSince(cluster_start);
  return result;
}

}  // namespace femux
