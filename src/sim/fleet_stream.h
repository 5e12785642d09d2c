// Streaming fleet simulation: simulate arbitrarily large fleets under a
// fixed memory budget. This is the only fleet simulator; SimulateFleet
// (fleet.h) is an adapter that runs it over a resident dataset.
//
// SimulateFleetStream pulls apps lazily from a TraceSource in contiguous
// index chunks: each worker generates a chunk's traces, expands its series
// into a per-worker arena, simulates it, and hands a small vector of
// per-app metrics to an ordered fold that accumulates the fleet total in
// strict app-index order before the chunk is discarded. Series are never
// kept across apps or calls: a sweep that visits the fleet twice expands
// each app twice, which costs far less than simulating it. Peak residency
// is O(threads x chunk) regardless of fleet size.
//
// Determinism contract: per-app metrics depend only on (source, factory,
// options), and the total is folded in app-index order, so for any thread
// count, chunk size and pending bound the result is bit-identical —
// regression-tested in tests/sim/fleet_stream_test.cc and against the
// committed golden in tests/sim/fleet_determinism_test.cc.
#ifndef SRC_SIM_FLEET_STREAM_H_
#define SRC_SIM_FLEET_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/sim/fleet.h"
#include "src/sim/simulator.h"
#include "src/trace/stream.h"

namespace femux {

struct FleetStreamOptions {
  SimOptions sim;
  bool respect_app_min_scale = false;
  std::size_t threads = 0;     // 0 = FEMUX_THREADS / hardware concurrency.
  // Apps generated + simulated per chunk. 0 = auto: about four chunks per
  // participant, max(1, apps / (4 x threads)), at most 64.
  std::size_t chunk_apps = 64;
  // Backpressure bound on chunks admitted past the fold frontier, passed
  // straight to the ordered fold. 0 = the fold's auto bound (2 x
  // participants + 2, stream_fold.h). Bounds transient memory when one slow
  // chunk stalls the frontier — without it, held-back results scale with
  // thread-count skew instead of with the configured chunk size.
  std::size_t max_pending_chunks = 0;
  // Optional observer invoked once per app in strict app-index order — the
  // streaming replacement for FleetResult::per_app. Runs under the fold
  // lock; keep it cheap.
  std::function<void(std::size_t, const SimMetrics&)> per_app_sink;
};

struct FleetStreamResult {
  SimMetrics total;
  std::size_t apps = 0;
  std::uint64_t epochs = 0;  // Demand epochs simulated across the fleet.
  std::size_t chunks = 0;
  // Peak number of completed chunks held back by the ordered fold; bounds
  // the transient out-of-order memory (<= the effective max_pending_chunks).
  std::size_t peak_pending_chunks = 0;
  // Times a worker blocked on the backpressure bound waiting for the fold
  // frontier to advance.
  std::size_t backpressure_waits = 0;
};

FleetStreamResult SimulateFleetStream(const TraceSource& source,
                                      const PolicyFactory& factory,
                                      const FleetStreamOptions& options);

// Convenience: every app uses a clone of `prototype`.
FleetStreamResult SimulateFleetStreamUniform(const TraceSource& source,
                                             const ScalingPolicy& prototype,
                                             const FleetStreamOptions& options);

}  // namespace femux

#endif  // SRC_SIM_FLEET_STREAM_H_
