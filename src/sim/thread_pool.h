// Process-wide persistent worker pool.
//
// The original ParallelFor spawned and joined fresh OS threads on every
// call, which put thread-creation latency on the trainer's hot path (one
// spawn wave per BuildBlockTable, per fleet simulation, per serving run).
// This pool is created once, lazily, on first use and reused by every
// ParallelFor in the process.
//
// Key properties:
//  - Work is claimed in contiguous chunks (~4 chunks per participant)
//    instead of one atomic fetch per item, so tiny loop bodies are not
//    dominated by synchronization.
//  - The calling thread always participates in its own region, which makes
//    nested/reentrant submission safe: a pooled task may itself call
//    ParallelFor (the trainer's per-app work inside the ordered fold
//    parallelizes over blocks) and is guaranteed to make progress even
//    when every worker is busy.
//  - Exceptions thrown by the loop body are captured (first one wins),
//    remaining chunks are cancelled, all participants drain, and the
//    exception is rethrown on the calling thread.
//  - `FEMUX_THREADS` overrides the default parallelism (hardware
//    concurrency); `FEMUX_THREADS=1` runs every region serially inline on
//    the caller, which is bit-for-bit deterministic.
#ifndef SRC_SIM_THREAD_POOL_H_
#define SRC_SIM_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace femux {

// Parallelism requested via the environment (`FEMUX_THREADS`) or hardware
// concurrency when unset/unparseable. Always >= 1. Read on every call so
// tests can adjust the override before touching the pool.
std::size_t ConfiguredThreadCount();

// Chunk size that gives each of `threads` participants (0 =
// ConfiguredThreadCount()) about four chunks of `items`: at least 1, at most
// `cap`. The ordered-fold consumers use it when their chunk size is 0 (auto).
std::size_t BalancedChunkSize(std::size_t items, std::size_t threads, std::size_t cap);

class ThreadPool {
 public:
  // The process-wide pool. Created lazily; sized to
  // ConfiguredThreadCount() - 1 workers at first touch (the caller of a
  // parallel region is always the remaining participant).
  static ThreadPool& Instance();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  std::size_t worker_count() const { return workers_.size(); }

  // Runs fn(i) for i in [0, count) using up to `max_threads` participants
  // (0 = ConfiguredThreadCount()), the caller included. Blocks until every
  // item has run (or been cancelled by a failure) and rethrows the first
  // exception thrown by `fn`.
  void ParallelFor(std::size_t count, const std::function<void(std::size_t)>& fn,
                   std::size_t max_threads = 0);

 private:
  // One ParallelFor invocation. Lives on the caller's stack; all fields are
  // guarded by the pool mutex (chunks are coarse, so claim frequency is a
  // few dozen per region and the single lock is not contended).
  struct Region {
    std::size_t count = 0;
    std::size_t chunk_size = 1;
    std::size_t next = 0;        // First unclaimed item.
    std::size_t in_flight = 0;   // Chunks currently executing.
    std::size_t helpers = 0;     // Pool workers currently attached.
    std::size_t max_helpers = 0; // Cap honoring the max_threads argument.
    const std::function<void(std::size_t)>* fn = nullptr;
    std::exception_ptr error;
  };

  explicit ThreadPool(std::size_t worker_threads);
  void WorkerLoop();
  // Claims and executes chunks of `region` until none are left; expects the
  // pool mutex to be held and returns with it held.
  void DrainRegion(Region& region, std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable work_cv_;  // Workers: a region may need helpers.
  std::condition_variable done_cv_;  // Callers: a region may have finished.
  std::vector<Region*> regions_;     // Active regions (nested calls stack up).
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace femux

#endif  // SRC_SIM_THREAD_POOL_H_
