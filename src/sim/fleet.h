// Fleet-level simulation: runs a scaling policy over every application of a
// dataset in parallel and aggregates metrics. This is the harness behind
// most evaluation figures.
#ifndef SRC_SIM_FLEET_H_
#define SRC_SIM_FLEET_H_

#include <functional>
#include <memory>
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

// Runs `factory`'s policies over all apps of `dataset`. `options.min_scale`
// is overridden per app from its configuration when
// `respect_app_min_scale` is set; the Azure-style evaluations disable it
// (Azure Functions had no provisioned concurrency in 2019).
//
// An adapter over SimulateFleetStream (fleet_stream.h) on a
// DatasetTraceSource: rows arrive through its ordered per_app_sink. Each
// worker drives its own policy instance from `factory` (clones must not
// share mutable state — see the Clone() audit test) and the total is folded
// in app-index order, so the result is bit-identical for any thread count,
// including `threads == 1` (fully serial inline; DESIGN.md §10).
FleetResult SimulateFleet(const Dataset& dataset, const PolicyFactory& factory,
                          SimOptions options, bool respect_app_min_scale = false,
                          std::size_t threads = 0);

// Convenience: every app uses a clone of `prototype`.
FleetResult SimulateFleetUniform(const Dataset& dataset, const ScalingPolicy& prototype,
                                 const SimOptions& options,
                                 bool respect_app_min_scale = false,
                                 std::size_t threads = 0);

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
