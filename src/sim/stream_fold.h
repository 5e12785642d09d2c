// Deterministic fold over parallel chunk computations — the one app-level
// fan-out behind fleet simulation and training (DESIGN.md §11).
//
// ParallelFor completes chunk bodies in nondeterministic order across
// workers, and floating-point accumulation is not associative — a streaming
// consumer folding results in completion order would produce thread-count-
// and timing-dependent totals, breaking the DESIGN.md §10 bit-identity
// contract. ParallelOrderedChunks restores determinism: compute(c) runs in
// parallel, but fold(c, result) is invoked on chunks strictly in index
// order (0, 1, 2, ...), holding completed-but-not-yet-due results in a
// pending map. The fold order — and therefore every accumulated bit — is
// identical for any thread count and chunk size partition.
//
// Backpressure (DESIGN.md §14): a fast worker must not race arbitrarily far
// ahead of the fold frontier, or transient memory scales with thread-count
// skew instead of with the configured chunk size. Chunk c is admitted into
// compute only once c < next + W (W = max_pending_chunks), capping held-back
// results at W. Callers whose results cost nothing to hold pass
// W >= num_chunks, which never waits.
//
// Scheduling: one chunk per ticket. Each participant runs a loop that draws
// the next chunk index from a shared atomic ticket, one chunk per draw.
// ParallelFor's batch claims would hand a participant count / (4 x
// participants) consecutive chunks at once — 97 of the 10^5-app sweep's 1563
// chunks against W = 10 — so every participant but the frontier's would park
// on the first chunk of its claim and the sweep would run serially. Tickets
// are drawn in increasing order, so the holder of the smallest unfolded
// chunk always satisfies c == next and proceeds, and folding it advances the
// frontier that admits everyone else: deadlock-free for any W >= 1.
#ifndef SRC_SIM_STREAM_FOLD_H_
#define SRC_SIM_STREAM_FOLD_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "src/sim/parallel.h"
#include "src/sim/thread_pool.h"

namespace femux {

struct OrderedChunkOptions {
  std::size_t threads = 0;  // 0 = pool default (FEMUX_THREADS / hw).
  // Upper bound on chunks admitted past the fold frontier (compute slots +
  // held-back results). 0 = auto: 2 x participants + 2, where participants
  // = min(num_chunks, threads), so every participant can have one chunk in
  // flight and one held back, plus slack.
  std::size_t max_pending_chunks = 0;
};

struct OrderedChunkStats {
  // Peak completed-but-not-yet-due results held back; <= the bound.
  std::size_t peak_pending_chunks = 0;
  // Times a worker blocked waiting for the fold frontier to advance.
  std::size_t backpressure_waits = 0;
};

// Runs compute(c) for c in [0, num_chunks) on the process thread pool and
// calls fold(c, std::move(result)) in strict chunk order. `fold` runs under
// an internal mutex on whichever worker completes the due chunk; it must be
// cheap and must not submit nested parallel work.
template <typename ChunkResult>
OrderedChunkStats ParallelOrderedChunks(
    std::size_t num_chunks, const OrderedChunkOptions& options,
    const std::function<ChunkResult(std::size_t)>& compute,
    const std::function<void(std::size_t, ChunkResult&&)>& fold) {
  const std::size_t participants = std::min(
      num_chunks, options.threads > 0 ? options.threads : ConfiguredThreadCount());
  const std::size_t bound = options.max_pending_chunks > 0
                                ? options.max_pending_chunks
                                : 2 * participants + 2;
  std::mutex mu;
  std::condition_variable admitted;
  std::map<std::size_t, ChunkResult> pending;
  std::size_t next = 0;
  bool failed = false;
  OrderedChunkStats stats;
  std::atomic<std::size_t> ticket{0};

  ParallelFor(
      participants,
      [&](std::size_t) {
        for (std::size_t c = ticket.fetch_add(1); c < num_chunks;
             c = ticket.fetch_add(1)) {
          {
            std::unique_lock<std::mutex> lock(mu);
            if (!failed && c >= next + bound) {
              ++stats.backpressure_waits;
              admitted.wait(lock, [&] { return failed || c < next + bound; });
            }
            if (failed) return;  // A sibling chunk threw; don't start new work.
          }
          std::optional<ChunkResult> result;
          try {
            result.emplace(compute(c));
          } catch (...) {
            // ParallelFor cancels unclaimed items on exception but cannot
            // wake waiters blocked on the admission cv — release them here
            // so the pool can drain and rethrow the original exception.
            std::lock_guard<std::mutex> lock(mu);
            failed = true;
            admitted.notify_all();
            throw;
          }
          std::lock_guard<std::mutex> lock(mu);
          if (failed) return;
          pending.emplace(c, std::move(*result));
          stats.peak_pending_chunks =
              std::max(stats.peak_pending_chunks, pending.size());
          bool advanced = false;
          while (!pending.empty() && pending.begin()->first == next) {
            auto it = pending.begin();
            try {
              fold(it->first, std::move(it->second));
            } catch (...) {
              failed = true;
              admitted.notify_all();
              throw;
            }
            pending.erase(it);
            ++next;
            advanced = true;
          }
          if (advanced) admitted.notify_all();
        }
      },
      participants);
  return stats;
}

}  // namespace femux

#endif  // SRC_SIM_STREAM_FOLD_H_
