// Allocation-counting hook for the zero-alloc hot-loop gate.
//
// alloc_hook.cc replaces the global operator new/delete family with
// malloc/free wrappers that bump a relaxed atomic counter per allocation.
// It is linked ONLY into binaries that opt in via target_sources (today:
// bench_fleet_scale, forecast_steady_state_alloc_test and
// serve_checkpoint_alloc_test) — replacing
// global new process-wide is exactly the blast radius a gate binary wants
// and a library must never impose.
//
// The gate protocol measures allocation *deltas* between two sweeps that
// differ only in epochs-per-app (same fleet size, same threads): per-app
// and per-chunk allocations cancel in the difference, so a nonzero delta
// is per-epoch heap traffic in the hot loop. Warm up at the larger size
// first so thread-local arena growth lands outside the measured windows.
// The live-bytes counter measures what a component holds the same way:
// read it before and after building the component.
#ifndef BENCH_ALLOC_HOOK_H_
#define BENCH_ALLOC_HOOK_H_

#include <cstdint>

namespace femux {

// Total global operator-new calls observed since process start.
std::uint64_t AllocHookCount();

// Bytes currently held through global operator new: malloc_usable_size of
// every block allocated, less that of every block deleted. A difference
// of two readings is the heap a component kept in between, with the
// allocator's rounding included.
std::int64_t AllocHookLiveBytes();

}  // namespace femux

#endif  // BENCH_ALLOC_HOOK_H_
