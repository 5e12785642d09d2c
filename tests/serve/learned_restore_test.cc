// Kill-restart decision parity for learned forecasters (DESIGN.md §15):
// a daemon serving linear_state checkpoints its apps' opaque trained state
// alongside the rings; a restarted daemon must restore that state and then
// make the same decisions as the uninterrupted daemon on identical input,
// within the mux parity bound (1e-7 scale-relative).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/serve/scaler_daemon.h"

namespace femux {
namespace {

constexpr std::size_t kApps = 6;
constexpr std::uint64_t kWarmTicks = 180;   // Past training + full windows.
constexpr std::uint64_t kAfterTicks = 60;   // Compared post-restart epochs.

std::vector<std::string> AppIds() {
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kApps; ++i) {
    ids.push_back("learned-app-" + std::to_string(i));
  }
  return ids;
}

// Bursty-but-deterministic per-app demand.
double Sample(std::size_t app_index, std::uint64_t epoch) {
  std::uint64_t h = epoch * 0x9e3779b97f4a7c15ULL + app_index * 0xc2b2ae3d27d4eb4fULL;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  if (h % 8 < 2) {
    return 10.0 + static_cast<double>(h % 97);
  }
  return 0.5 * static_cast<double>(app_index);
}

ScalerDaemonOptions LearnedOptions(const std::string& ckpt) {
  ScalerDaemonOptions options;
  options.shards = 2;
  options.forecaster = "linear_state";
  options.history_window = 120;
  // No deadline: a wall-clock stall must not degrade one daemon's decision
  // and not the other's (ScalerDaemonTest.DeadlineMissDegradesDecision
  // covers the deadline).
  options.decision_deadline_ms = 1e6;
  options.parallel_shards = false;
  options.checkpoint_path = ckpt;
  return options;
}

void RunTicks(ScalerDaemon& daemon, const std::vector<std::string>& ids,
              std::uint64_t first_epoch, std::uint64_t last_epoch) {
  for (std::uint64_t epoch = first_epoch; epoch <= last_epoch; ++epoch) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      daemon.Push({ids[i], epoch, Sample(i, epoch)});
    }
    daemon.TickOnce();
  }
}

TEST(LearnedRestoreTest, KillRestartKeepsDecisionParity) {
  const auto ids = AppIds();
  const std::string ckpt =
      ::testing::TempDir() + "femux_learned_restore_test.ckpt";

  ScalerDaemon continuous(LearnedOptions(ckpt));
  RunTicks(continuous, ids, 1, kWarmTicks);
  ASSERT_TRUE(continuous.Checkpoint());

  // The checkpoint must actually carry the opaque learned records: the
  // linear_state blob magic appears literally (';' and hexfloats need no
  // escaping in the record token format).
  {
    std::ifstream in(ckpt);
    ASSERT_TRUE(in.good());
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("lsv1"), std::string::npos);
  }

  // "Kill": a fresh daemon warm-resumes from the checkpoint.
  ScalerDaemon restarted(LearnedOptions(ckpt));
  ASSERT_EQ(restarted.RestoreFromCheckpoint(), ids.size());

  // Both daemons now consume identical post-crash input.
  for (std::uint64_t epoch = kWarmTicks + 1; epoch <= kWarmTicks + kAfterTicks;
       ++epoch) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const MetricPush push{ids[i], epoch, Sample(i, epoch)};
      ASSERT_TRUE(continuous.Push(push));
      ASSERT_TRUE(restarted.Push(push));
    }
    continuous.TickOnce();
    restarted.TickOnce();
    for (const auto& id : ids) {
      const double a = continuous.LatestTarget(id);
      const double b = restarted.LatestTarget(id);
      ASSERT_TRUE(std::isfinite(a)) << id;
      ASSERT_TRUE(std::isfinite(b)) << id;
      const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
      EXPECT_LE(std::fabs(a - b) / scale, 1e-7)
          << id << " epoch=" << epoch << " continuous=" << a
          << " restarted=" << b;
    }
  }
  std::remove(ckpt.c_str());
}

TEST(LearnedRestoreTest, RestoreWithoutStateTokenStillServes) {
  // Back-compat: a checkpoint written by a daemon whose forecaster has no
  // opaque state (holt) restores into a learned-forecaster daemon without
  // state tokens — the apps come back cold-trained but servable.
  const auto ids = AppIds();
  const std::string ckpt =
      ::testing::TempDir() + "femux_learned_restore_compat_test.ckpt";

  ScalerDaemonOptions closed_form = LearnedOptions(ckpt);
  closed_form.forecaster = "holt";
  ScalerDaemon writer(closed_form);
  RunTicks(writer, ids, 1, 40);
  ASSERT_TRUE(writer.Checkpoint());

  ScalerDaemon reader(LearnedOptions(ckpt));
  ASSERT_EQ(reader.RestoreFromCheckpoint(), ids.size());
  RunTicks(reader, ids, 41, 50);
  for (const auto& id : ids) {
    const double target = reader.LatestTarget(id);
    EXPECT_TRUE(std::isfinite(target)) << id;
    EXPECT_GE(target, 0.0) << id;
  }
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace femux
