// A due periodic checkpoint costs the tick a copy into kept capacity. Once
// the fleet is registered and every window is full, a tick that makes a
// checkpoint due allocates nothing, exactly like a plain tick. This binary
// links bench/alloc_hook.cc, which replaces the global operator new with a
// counting one; the writer is held before it formats, so only the tick
// thread can allocate inside the counted window.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_hook.h"
#include "src/core/serialize.h"
#include "src/serve/scaler_daemon.h"

namespace femux {
namespace {

constexpr std::size_t kApps = 64;
// Divides the timer wheel's 64 slots, so the checkpoint event cycles
// through two slots whose vectors are warm after the first two.
constexpr std::uint64_t kEvery = 32;
// Holt's window is 120 samples: by the fourth checkpoint (tick 128) every
// ring in the snapshot has reached it.
constexpr std::uint64_t kWarmTicks = 5 * kEvery - 1;

TEST(CheckpointAllocationTest, DueCheckpointTickAllocatesNothing) {
  const std::string path = ::testing::TempDir() + "femux_checkpoint_alloc_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".ckpt";
  ScalerDaemonOptions options;
  options.shards = 4;
  options.forecaster = "holt";
  options.history_window = 64;
  options.decision_deadline_ms = 1e6;
  options.parallel_shards = false;  // Count the daemon, not the pool.
  options.checkpoint_every_ticks = kEvery;
  options.checkpoint_path = path;
  std::atomic<bool> release{false};  // Outlives the daemon and its writer.
  ScalerDaemon daemon(options);
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kApps; ++i) {
    ids.push_back("app-" + std::to_string(i));
  }
  const auto push_epoch = [&](std::uint64_t epoch) {
    for (std::size_t i = 0; i < kApps; ++i) {
      const double value = 4.0 + 3.0 * std::sin(0.1 * static_cast<double>(epoch + i));
      ASSERT_TRUE(daemon.Push({ids[i], epoch, value}));
    }
  };
  for (std::uint64_t epoch = 1; epoch <= kWarmTicks; ++epoch) {
    push_epoch(epoch);
    daemon.TickOnce();
  }
  ASSERT_EQ(daemon.counters().checkpoints, 4u);  // Drains the fourth write.
  daemon.DrainDecisionLatenciesUs();  // Keeps the latency rings in capacity.

  daemon.SetCheckpointWriteHookForTest([&release] {
    while (!release) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  push_epoch(kWarmTicks + 1);
  std::uint64_t before = AllocHookCount();
  daemon.TickOnce();  // Due: snapshot + hand-off; the writer then holds.
  const std::uint64_t due_tick = AllocHookCount() - before;
  push_epoch(kWarmTicks + 2);
  before = AllocHookCount();
  daemon.TickOnce();
  const std::uint64_t plain_tick = AllocHookCount() - before;
  release = true;
  daemon.Stop();

  EXPECT_EQ(due_tick, 0u);
  EXPECT_EQ(plain_tick, 0u);
  EXPECT_EQ(daemon.counters().checkpoints, 5u);
  DaemonCheckpoint loaded;
  ASSERT_TRUE(LoadDaemonCheckpointFile(path, &loaded));
  EXPECT_EQ(loaded.tick, kWarmTicks + 1);
  EXPECT_EQ(loaded.apps.size(), kApps);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace femux
