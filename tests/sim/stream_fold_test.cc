// Scheduling tests for the bounded ordered fold (src/sim/stream_fold.h):
// participants really overlap, the fold order survives adversarial
// completion orders for every bound x thread count, and a throw while other
// participants are parked on admission unwinds cleanly.
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/stream_fold.h"
#include "src/stats/rng.h"

namespace femux {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

// The pool is sized at first touch; pin it to caller + 3 workers so the
// 4-thread cases below get four real participants on any machine.
const bool kEnvReady = [] {
  setenv("FEMUX_THREADS", "4", 1);
  return true;
}();

TEST(StreamFoldTest, FirstChunkOfEveryParticipantOverlaps) {
  ASSERT_TRUE(kEnvReady);
  // Chunks 0-3 meet at a 4-party rendezvous. They overlap only if each is
  // drawn by a different participant: a scheduler that hands one participant
  // several consecutive chunks runs them one after another, and each times
  // out waiting for the others.
  constexpr std::size_t kChunks = 64;
  constexpr std::size_t kParties = 4;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::array<bool, kParties> met{};
  OrderedChunkOptions options;
  options.threads = kParties;
  options.max_pending_chunks = 10;
  std::vector<std::size_t> folded;
  ParallelOrderedChunks<std::size_t>(
      kChunks, options,
      [&](std::size_t c) {
        if (c < kParties) {
          std::unique_lock<std::mutex> lock(mu);
          ++arrived;
          cv.notify_all();
          met[c] = cv.wait_for(lock, seconds(5), [&] { return arrived >= kParties; });
        }
        return c;
      },
      [&](std::size_t c, std::size_t&& result) {
        EXPECT_EQ(result, c);
        folded.push_back(c);
      });
  for (std::size_t c = 0; c < kParties; ++c) {
    EXPECT_TRUE(met[c]) << "chunk " << c << " never met the other first chunks";
  }
  ASSERT_EQ(folded.size(), kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) {
    ASSERT_EQ(folded[c], c);
  }
}

TEST(StreamFoldTest, FoldsInOrderUnderAdversarialCompletion) {
  ASSERT_TRUE(kEnvReady);
  // Delays fall with the chunk index (plus seeded jitter), so later chunks
  // finish first and pile up behind the frontier as far as the bound lets
  // them. 0 is the auto bound, 2 x participants + 2.
  constexpr std::size_t kChunks = 48;
  Rng rng(20261016);
  std::vector<int> delay_us(kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) {
    delay_us[c] =
        static_cast<int>((kChunks - c) * 40) + static_cast<int>(rng.UniformInt(0, 400));
  }
  for (const std::size_t bound : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                  std::size_t{8}, kChunks}) {
    for (const std::size_t threads : {1, 2, 4}) {
      SCOPED_TRACE("bound " + std::to_string(bound) + ", threads " +
                   std::to_string(threads));
      OrderedChunkOptions options;
      options.threads = threads;
      options.max_pending_chunks = bound;
      std::vector<std::size_t> order;
      const OrderedChunkStats stats = ParallelOrderedChunks<std::size_t>(
          kChunks, options,
          [&](std::size_t c) {
            std::this_thread::sleep_for(std::chrono::microseconds(delay_us[c]));
            return 3 * c + 1;
          },
          [&](std::size_t c, std::size_t&& result) {
            EXPECT_EQ(result, 3 * c + 1);
            order.push_back(c);
          });
      ASSERT_EQ(order.size(), kChunks);
      for (std::size_t c = 0; c < kChunks; ++c) {
        ASSERT_EQ(order[c], c);
      }
      const std::size_t effective = bound > 0 ? bound : 2 * threads + 2;
      EXPECT_LE(stats.peak_pending_chunks, effective);
      EXPECT_GE(stats.peak_pending_chunks, 1u);
    }
  }
}

TEST(StreamFoldTest, ThrowWhileOthersWaitRethrowsAndFoldsOnlyEarlierChunks) {
  ASSERT_TRUE(kEnvReady);
  // Bound 1 admits only the frontier chunk, so while chunk kThrowAt stalls
  // the other three participants hold later tickets and park on admission.
  // The throw must wake them, surface the original exception, and leave the
  // chunks before it folded and nothing after it.
  constexpr std::size_t kChunks = 32;
  constexpr std::size_t kThrowAt = 5;
  OrderedChunkOptions options;
  options.threads = 4;
  options.max_pending_chunks = 1;
  std::vector<std::size_t> folded;
  std::future<std::string> outcome = std::async(std::launch::async, [&] {
    try {
      ParallelOrderedChunks<std::size_t>(
          kChunks, options,
          [&](std::size_t c) {
            if (c == kThrowAt) {
              std::this_thread::sleep_for(milliseconds(100));
              throw std::runtime_error("chunk 5 failed");
            }
            return c;
          },
          [&](std::size_t c, std::size_t&&) { folded.push_back(c); });
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("returned without throwing");
  });
  if (outcome.wait_for(seconds(60)) != std::future_status::ready) {
    // Parked participants that are never woken also wedge the pool's
    // workers, so neither the future nor the process can be joined.
    ADD_FAILURE() << "ParallelOrderedChunks hung after a chunk threw";
    std::_Exit(1);
  }
  EXPECT_EQ(outcome.get(), "chunk 5 failed");
  ASSERT_EQ(folded.size(), kThrowAt);
  for (std::size_t c = 0; c < kThrowAt; ++c) {
    EXPECT_EQ(folded[c], c);
  }

  // The pool stays serviceable after the failed fold.
  std::size_t total = 0;
  ParallelOrderedChunks<std::size_t>(
      kChunks, options, [](std::size_t c) { return c; },
      [&](std::size_t, std::size_t&& result) { total += result; });
  EXPECT_EQ(total, kChunks * (kChunks - 1) / 2);
}

}  // namespace
}  // namespace femux
