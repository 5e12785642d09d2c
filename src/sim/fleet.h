// Fleet-level simulation: runs a scaling policy over every application of a
// dataset in parallel and aggregates metrics. This is the harness behind
// most evaluation figures.
#ifndef SRC_SIM_FLEET_H_
#define SRC_SIM_FLEET_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/trace/trace.h"

namespace femux {

struct FleetResult {
  SimMetrics total;
  std::vector<SimMetrics> per_app;  // Parallel to the dataset's app vector.
};

// Factory invoked once per application (policies are stateful). Receives the
// app index so callers can vary policies per app (e.g. multi-tier RUMs).
using PolicyFactory = std::function<std::unique_ptr<ScalingPolicy>(int app_index)>;

// Caches the derived per-app demand/arrival series across repeated
// SimulateFleet calls over the same dataset (bench sweeps run many policies
// over identical traces; the series expansion is pure per (app, epoch)).
// Keyed by (app index, epoch length), so one cache must not be shared across
// different datasets. Thread-safe: fleet workers hit it concurrently.
//
// Residency is bounded by a byte budget with LRU eviction, mirroring the
// FFT plan cache (SetFftCacheBudget in src/stats/fft.h): at 10^5+ apps an
// unbounded cache would be linear in fleet size, defeating the streaming
// pipeline's flat-memory contract. Default budget 64 MB, overridable via
// FEMUX_SERIES_CACHE_MB or SetBudget(). Evicted series stay valid for
// holders of the shared_ptrs.
class SeriesCache {
 public:
  SeriesCache();

  struct Series {
    std::shared_ptr<const std::vector<double>> demand;
    std::shared_ptr<const std::vector<double>> arrivals;
  };

  // Observability counters. hits/misses/evictions are monotonic for the
  // cache's lifetime: hits + misses == GetOrCompute calls (a racing first
  // computation counts one miss per computing caller); evictions counts
  // entries dropped by the LRU bound or Clear(). entries/bytes are the
  // current residency. Exported through bench JSON (DESIGN.md §10-11).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };

  // Returns the cached series for (app_index, epoch_seconds), computing and
  // inserting them on first use. `app` must be the dataset entry the index
  // refers to.
  Series GetOrCompute(const AppTrace& app, int app_index, double epoch_seconds);

  // Replaces the byte budget and returns the previous one. Existing entries
  // are only re-checked against the new budget on the next insert.
  std::size_t SetBudget(std::size_t bytes);

  void Clear();
  std::size_t size() const;
  Stats stats() const;

 private:
  using Key = std::pair<int, long long>;  // (app index, epoch milliseconds)
  struct Entry {
    Series series;
    std::list<Key>::iterator lru_it;
    std::size_t weight = 0;
  };

  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  // Front = most recently used.
  std::size_t weight_ = 0;
  std::size_t budget_ = 64u << 20;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

// Runs `factory`'s policies over all apps of `dataset`. `options.min_scale`
// is overridden per app from its configuration when
// `respect_app_min_scale` is set; the Azure-style evaluations disable it
// (Azure Functions had no provisioned concurrency in 2019).
// `series_cache` (optional) reuses demand/arrival series across calls;
// single-shot callers pass nothing and pay no caching cost.
//
// An adapter over SimulateFleetStream (fleet_stream.h) on a
// DatasetTraceSource: rows arrive through its ordered per_app_sink. Each
// worker drives its own policy instance from `factory` (clones must not
// share mutable state — see the Clone() audit test) and the total is folded
// in app-index order, so the result is bit-identical for any thread count,
// including `threads == 1` (fully serial inline; DESIGN.md §10).
FleetResult SimulateFleet(const Dataset& dataset, const PolicyFactory& factory,
                          SimOptions options, bool respect_app_min_scale = false,
                          std::size_t threads = 0, SeriesCache* series_cache = nullptr);

// Convenience: every app uses a clone of `prototype`.
FleetResult SimulateFleetUniform(const Dataset& dataset, const ScalingPolicy& prototype,
                                 const SimOptions& options,
                                 bool respect_app_min_scale = false,
                                 std::size_t threads = 0,
                                 SeriesCache* series_cache = nullptr);

// Demand series (compute units per epoch) for one app at the given epoch
// length. Minute-level counts are expanded/aggregated to the epoch grid;
// sub-minute epochs reuse the minute's average concurrency (the paper
// distributes invocations uniformly within each minute).
std::vector<double> DemandSeries(const AppTrace& app, double epoch_seconds);

// Invocation arrivals per epoch on the same grid.
std::vector<double> ArrivalSeries(const AppTrace& app, double epoch_seconds);

// Reusable scratch for the arena forms below; one per worker thread in the
// streaming fleet pipeline (DESIGN.md §14) so series expansion allocates
// nothing once buffers reach steady-state capacity.
struct SeriesWorkspace {
  std::vector<double> concurrency;
};

// Arena forms of the series expansions: identical values in identical order
// to the returning forms, written into reused buffers.
void DemandSeriesInto(const AppTrace& app, double epoch_seconds,
                      SeriesWorkspace* workspace, std::vector<double>* out);
void ArrivalSeriesInto(const AppTrace& app, double epoch_seconds,
                       std::vector<double>* out);

}  // namespace femux

#endif  // SRC_SIM_FLEET_H_
