#include "src/sim/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>

namespace femux {

std::size_t ConfiguredThreadCount() {
  const char* env = std::getenv("FEMUX_THREADS");
  if (env != nullptr && *env != '\0') {
    std::size_t value = 0;
    const auto [ptr, ec] = std::from_chars(env, env + std::strlen(env), value);
    if (ec == std::errc() && *ptr == '\0' && value >= 1) {
      return value;
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t BalancedChunkSize(std::size_t items, std::size_t threads, std::size_t cap) {
  const std::size_t participants = threads > 0 ? threads : ConfiguredThreadCount();
  return std::clamp<std::size_t>(items / (4 * participants), 1,
                                 std::max<std::size_t>(1, cap));
}

ThreadPool& ThreadPool::Instance() {
  static ThreadPool pool(ConfiguredThreadCount() - 1);
  return pool;
}

ThreadPool::ThreadPool(std::size_t worker_threads) {
  workers_.reserve(worker_threads);
  for (std::size_t w = 0; w < worker_threads; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn,
                             std::size_t max_threads) {
  if (max_threads == 0) {
    max_threads = ConfiguredThreadCount();
  }
  const std::size_t participants =
      std::min({max_threads, worker_count() + 1, count});
  if (participants <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }

  Region region;
  region.count = count;
  // ~4 chunks per participant balances scheduling slack against claim
  // overhead; a single item per claim is still the floor for small counts.
  region.chunk_size = std::max<std::size_t>(1, count / (participants * 4));
  region.fn = &fn;
  region.max_helpers = participants - 1;

  std::unique_lock<std::mutex> lock(mu_);
  regions_.push_back(&region);
  work_cv_.notify_all();
  DrainRegion(region, lock);
  done_cv_.wait(lock, [&region] {
    return region.next >= region.count && region.in_flight == 0;
  });
  regions_.erase(std::find(regions_.begin(), regions_.end(), &region));
  if (region.error != nullptr) {
    lock.unlock();
    std::rethrow_exception(region.error);
  }
}

void ThreadPool::DrainRegion(Region& region, std::unique_lock<std::mutex>& lock) {
  while (region.next < region.count) {
    const std::size_t begin = region.next;
    const std::size_t end = std::min(region.count, begin + region.chunk_size);
    region.next = end;
    ++region.in_flight;
    lock.unlock();
    std::exception_ptr error;
    try {
      for (std::size_t i = begin; i < end; ++i) {
        (*region.fn)(i);
      }
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    --region.in_flight;
    if (error != nullptr) {
      if (region.error == nullptr) {
        region.error = error;
      }
      region.next = region.count;  // Cancel unclaimed chunks.
    }
    if (region.next >= region.count && region.in_flight == 0) {
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Region* region = nullptr;
    work_cv_.wait(lock, [this, &region] {
      if (shutdown_) {
        return true;
      }
      for (Region* candidate : regions_) {
        if (candidate->next < candidate->count &&
            candidate->helpers < candidate->max_helpers) {
          region = candidate;
          return true;
        }
      }
      return false;
    });
    if (shutdown_) {
      return;
    }
    ++region->helpers;
    DrainRegion(*region, lock);
    --region->helpers;
  }
}

}  // namespace femux
