#include "src/sim/fleet_stream.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/stream_fold.h"
#include "src/sim/thread_pool.h"

namespace femux {
namespace {

// Everything a chunk hands to the ordered fold: one metrics row per app in
// the chunk (index order within the chunk) plus the epoch count.
struct ChunkMetrics {
  std::vector<SimMetrics> per_app;
  std::uint64_t epochs = 0;
};

// Per-worker reusable buffers: the regenerated trace, the series-expansion
// scratch, and the expanded demand/arrival series all live in one
// thread-local arena, so once each buffer reaches the fleet's steady-state
// size a worker simulates apps with no heap allocation beyond the per-app
// policy clone and metrics row (verified by the allocation hook in
// bench_fleet_scale).
struct ChunkArena {
  AppTrace app;
  SeriesWorkspace series_workspace;
  std::vector<double> demand;
  std::vector<double> arrivals;
};

}  // namespace

FleetStreamResult SimulateFleetStream(const TraceSource& source,
                                      const PolicyFactory& factory,
                                      const FleetStreamOptions& options) {
  const std::size_t num_apps = source.app_count();
  const std::size_t chunk_apps =
      options.chunk_apps == 0 ? BalancedChunkSize(num_apps, options.threads, 64)
                              : options.chunk_apps;
  const std::size_t num_chunks = (num_apps + chunk_apps - 1) / chunk_apps;

  FleetStreamResult result;
  result.chunks = num_chunks;

  OrderedChunkOptions fold_options;
  fold_options.threads = options.threads;
  fold_options.max_pending_chunks = options.max_pending_chunks;

  const OrderedChunkStats fold_stats = ParallelOrderedChunks<ChunkMetrics>(
      num_chunks, fold_options,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk_apps;
        const std::size_t end = std::min(num_apps, begin + chunk_apps);
        ChunkMetrics chunk;
        chunk.per_app.reserve(end - begin);
        thread_local ChunkArena arena;
        for (std::size_t i = begin; i < end; ++i) {
          // The app's traces, series, and policy live only for this
          // iteration; the metrics row is all that survives.
          source.MakeAppInto(i, &arena.app);
          const AppTrace& app = arena.app;
          SimOptions app_options = options.sim;
          app_options.min_scale =
              options.respect_app_min_scale ? app.config.min_scale : 0;
          app_options.memory_gb_per_unit =
              app.consumed_memory_mb > 0.0 ? app.consumed_memory_mb / 1024.0
                                           : options.sim.memory_gb_per_unit;
          std::unique_ptr<ScalingPolicy> policy = factory(static_cast<int>(i));
          DemandSeriesInto(app, app_options.epoch_seconds,
                           &arena.series_workspace, &arena.demand);
          ArrivalSeriesInto(app, app_options.epoch_seconds, &arena.arrivals);
          chunk.per_app.push_back(
              SimulateApp(arena.demand, arena.arrivals, *policy, app_options));
          chunk.epochs += arena.demand.size();
        }
        return chunk;
      },
      [&](std::size_t c, ChunkMetrics&& chunk) {
        // Chunks arrive here in index order, and rows within a chunk are in
        // index order, so the total is the app-order reduction for any
        // chunking — bit-identical totals.
        const std::size_t begin = c * chunk_apps;
        for (std::size_t k = 0; k < chunk.per_app.size(); ++k) {
          result.total += chunk.per_app[k];
          if (options.per_app_sink) {
            options.per_app_sink(begin + k, chunk.per_app[k]);
          }
        }
        result.apps += chunk.per_app.size();
        result.epochs += chunk.epochs;
      });

  result.peak_pending_chunks = fold_stats.peak_pending_chunks;
  result.backpressure_waits = fold_stats.backpressure_waits;
  return result;
}

FleetStreamResult SimulateFleetStreamUniform(const TraceSource& source,
                                             const ScalingPolicy& prototype,
                                             const FleetStreamOptions& options) {
  return SimulateFleetStream(
      source, [&prototype](int) { return prototype.Clone(); }, options);
}

}  // namespace femux
