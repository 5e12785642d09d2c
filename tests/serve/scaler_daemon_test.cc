// Scaler daemon: fault-free decision parity with the simulator, ingestion
// validation and backpressure, the degradation ladder + quarantine
// watchdog, crash-safe checkpoint/restore parity, and the background
// checkpoint writer (same bytes, drained on destruction, waits not skips,
// race-free accessors).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/serialize.h"
#include "src/forecast/forecaster.h"
#include "src/forecast/registry.h"
#include "src/serve/scaler_daemon.h"
#include "src/sim/policy.h"
#include "src/sim/simulator.h"

namespace femux {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "femux_daemon_" + name + "_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".ckpt";
}

// Deterministic synthetic concurrency series, different per app.
double Sample(std::size_t app_index, std::uint64_t epoch) {
  const double base = 4.0 + static_cast<double>(app_index % 5);
  const double wave =
      3.0 * std::sin(0.25 * static_cast<double>(epoch) + static_cast<double>(app_index));
  return std::max(0.0, base + wave);
}

std::vector<std::string> MakeAppIds(std::size_t n) {
  std::vector<std::string> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back("app-" + std::to_string(i));
  }
  return ids;
}

ScalerDaemonOptions BaseOptions() {
  ScalerDaemonOptions options;
  options.shards = 2;
  options.forecaster = "holt";
  options.history_window = 32;
  options.fallback_window = 8;
  options.margin = 1.25;
  options.decision_deadline_ms = 1e6;  // Effectively no deadline by default.
  options.parallel_shards = false;     // Single-threaded ticks in unit tests.
  return options;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The daemon decides what the simulator decides: with faults off, each
// tick's target equals ForecasterPolicy::TargetUnits on the same prefix,
// and SimulatePlan over the daemon's targets equals SimulateApp with that
// policy, field by field.
TEST(ScalerDaemonTest, FaultFreeDecisionsMatchTheSimulator) {
  constexpr std::uint64_t kTicks = 160;
  constexpr std::size_t kHistory = 64;
  constexpr double kMargin = 1.25;
  const auto ids = MakeAppIds(3);
  for (const char* name :
       {"holt", "ar", "setar", "markov_chain", "fft", "moving_average_1"}) {
    SCOPED_TRACE(name);
    ScalerDaemonOptions options = BaseOptions();
    options.forecaster = name;
    options.history_window = kHistory;
    options.margin = kMargin;
    ScalerDaemon daemon(options);
    const auto make_policy = [&]() {
      return std::make_unique<ForecasterPolicy>(MakeForecasterByName(name), kMargin,
                                                kHistory);
    };
    std::vector<std::unique_ptr<ForecasterPolicy>> policies;
    std::vector<std::vector<double>> demand(ids.size());
    // plan[t] provisions epoch t from the first t samples; nothing is
    // known before the first push.
    std::vector<std::vector<double>> plan(ids.size(), std::vector<double>{0.0});
    for (std::size_t i = 0; i < ids.size(); ++i) {
      policies.push_back(make_policy());
    }
    for (std::uint64_t tick = 1; tick <= kTicks; ++tick) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        // Idle stretches every 40 epochs, so zero demand is covered too.
        const double value = (tick / 20) % 2 == 1 && i == 0 ? 0.0 : Sample(i, tick);
        ASSERT_TRUE(daemon.Push({ids[i], tick, value}));
        demand[i].push_back(value);
      }
      daemon.TickOnce();
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const double target = daemon.LatestTarget(ids[i]);
        ASSERT_EQ(Bits(target), Bits(policies[i]->TargetUnits(demand[i])))
            << "app " << ids[i] << " tick " << tick;
        plan[i].push_back(target);
      }
    }
    // Fault-free serving never retries or degrades: a forecaster that threw
    // and was re-seeded would still match the targets above.
    const DaemonCounters counters = daemon.counters();
    EXPECT_EQ(counters.decisions, kTicks * ids.size());
    EXPECT_EQ(counters.forecast_ok, counters.decisions);
    EXPECT_EQ(counters.retries, 0u);
    EXPECT_EQ(counters.forecast_faults, 0u);
    EXPECT_EQ(counters.deadline_misses, 0u);
    EXPECT_EQ(counters.degraded_last_good, 0u);
    EXPECT_EQ(counters.degraded_moving_avg, 0u);
    EXPECT_EQ(counters.pushes, kTicks * ids.size());
    EXPECT_EQ(counters.drops, 0u);
    const std::vector<Decision> latest = daemon.LatestDecisions();
    EXPECT_EQ(latest.size(), ids.size());
    for (const Decision& d : latest) {
      EXPECT_EQ(d.source, DecisionSource::kForecast);
      EXPECT_EQ(d.tick, kTicks);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const SimMetrics from_daemon = SimulatePlan(demand[i], {}, plan[i], SimOptions{});
      const auto policy = make_policy();
      const SimMetrics from_simulator = SimulateApp(demand[i], {}, *policy, SimOptions{});
      EXPECT_EQ(Bits(from_daemon.invocations), Bits(from_simulator.invocations));
      EXPECT_EQ(Bits(from_daemon.cold_starts), Bits(from_simulator.cold_starts));
      EXPECT_EQ(Bits(from_daemon.cold_invocations),
                Bits(from_simulator.cold_invocations));
      EXPECT_EQ(Bits(from_daemon.cold_start_seconds),
                Bits(from_simulator.cold_start_seconds));
      EXPECT_EQ(Bits(from_daemon.wasted_gb_seconds),
                Bits(from_simulator.wasted_gb_seconds));
      EXPECT_EQ(Bits(from_daemon.allocated_gb_seconds),
                Bits(from_simulator.allocated_gb_seconds));
      EXPECT_EQ(Bits(from_daemon.execution_seconds),
                Bits(from_simulator.execution_seconds));
      EXPECT_EQ(Bits(from_daemon.service_seconds), Bits(from_simulator.service_seconds));
    }
  }
}

TEST(ScalerDaemonTest, BackpressureDropsWhenQueueIsFull) {
  ScalerDaemonOptions options = BaseOptions();
  options.shards = 1;
  options.queue_capacity = 4;
  ScalerDaemon daemon(options);
  int accepted = 0;
  for (std::uint64_t epoch = 1; epoch <= 10; ++epoch) {
    accepted += daemon.Push({"app-0", epoch, 1.0}) ? 1 : 0;
  }
  EXPECT_EQ(accepted, 4);
  const DaemonCounters counters = daemon.counters();
  EXPECT_EQ(counters.pushes, 4u);
  EXPECT_EQ(counters.drops, 6u);
  daemon.TickOnce();
  // The queue drained; capacity is available again.
  EXPECT_TRUE(daemon.Push({"app-0", 11, 1.0}));
}

TEST(ScalerDaemonTest, RejectsCorruptAndStalePushes) {
  ScalerDaemonOptions options = BaseOptions();
  options.shards = 1;
  ScalerDaemon daemon(options);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(daemon.Push({"app-0", 1, nan}));
  ASSERT_TRUE(daemon.Push({"app-0", 1, -2.0}));
  daemon.TickOnce();
  // Malformed-only apps are never registered.
  EXPECT_EQ(daemon.app_count(), 0u);
  EXPECT_TRUE(std::isnan(daemon.LatestTarget("app-0")));

  ASSERT_TRUE(daemon.Push({"app-0", 5, 2.0}));
  ASSERT_TRUE(daemon.Push({"app-0", 5, 3.0}));  // Duplicate epoch.
  ASSERT_TRUE(daemon.Push({"app-0", 3, 4.0}));  // Out-of-order epoch.
  ASSERT_TRUE(daemon.Push({"app-0", 8, 5.0}));  // Forward gap: accepted.
  daemon.TickOnce();
  EXPECT_EQ(daemon.app_count(), 1u);
  const DaemonCounters counters = daemon.counters();
  EXPECT_EQ(counters.corrupt_rejected, 2u);
  EXPECT_EQ(counters.stale_or_duplicate, 2u);
  EXPECT_EQ(counters.epoch_gaps, 1u);
  EXPECT_EQ(daemon.GetAppHealth("app-0").observed, 2u);
}

TEST(ScalerDaemonTest, DegradationLadderThenQuarantineThenRecovery) {
  ScalerDaemonOptions options = BaseOptions();
  options.shards = 1;
  options.retry.max_attempts = 3;
  options.quarantine_threshold = 3;
  options.quarantine_ticks = 4;
  ScalerDaemon daemon(options);

  // Phase 1: healthy ticks establish a last-good plan.
  std::uint64_t epoch = 0;
  for (int tick = 0; tick < 10; ++tick) {
    ASSERT_TRUE(daemon.Push({"app-0", ++epoch, Sample(0, epoch)}));
    daemon.TickOnce();
  }
  const double last_good = daemon.LatestTarget("app-0");
  ASSERT_TRUE(std::isfinite(last_good));
  ASSERT_EQ(daemon.LatestDecisions()[0].source, DecisionSource::kForecast);

  // Phase 2: the forecaster always throws. Every decision exhausts its
  // retries, degrades to the last-good plan, and after `threshold`
  // consecutive faulted decisions the watchdog quarantines the app.
  FaultSpec all_throw;
  all_throw.seed = 1;
  all_throw.forecast_throw = 1.0;
  daemon.SetFaultsForTest(all_throw);
  for (int tick = 0; tick < 3; ++tick) {
    ASSERT_TRUE(daemon.Push({"app-0", ++epoch, Sample(0, epoch)}));
    daemon.TickOnce();
    const std::vector<Decision> latest = daemon.LatestDecisions();
    ASSERT_EQ(latest.size(), 1u);
    EXPECT_EQ(latest[0].source, DecisionSource::kLastGood);
    EXPECT_DOUBLE_EQ(latest[0].target, last_good);
  }
  DaemonCounters counters = daemon.counters();
  EXPECT_EQ(counters.degraded_last_good, 3u);
  EXPECT_EQ(counters.forecast_faults, 3u * 3u);  // max_attempts per decision.
  EXPECT_EQ(counters.retries, 3u * 2u);
  EXPECT_EQ(counters.quarantines, 1u);
  EXPECT_TRUE(daemon.GetAppHealth("app-0").quarantined);

  // Phase 3: quarantined decisions come from the moving-average rung and
  // never drop the app.
  for (std::uint64_t tick = 0; tick < options.quarantine_ticks - 1; ++tick) {
    ASSERT_TRUE(daemon.Push({"app-0", ++epoch, Sample(0, epoch)}));
    daemon.TickOnce();
    const std::vector<Decision> latest = daemon.LatestDecisions();
    ASSERT_EQ(latest.size(), 1u);
    EXPECT_EQ(latest[0].source, DecisionSource::kQuarantined);
    EXPECT_TRUE(std::isfinite(latest[0].target));
  }
  counters = daemon.counters();
  EXPECT_EQ(counters.quarantined_decisions, options.quarantine_ticks - 1);

  // Phase 4: faults stop; the release event fires and the app returns to
  // the forecast rung (its stream re-seeds from the ring).
  daemon.SetFaultsForTest(FaultSpec{});
  ASSERT_TRUE(daemon.Push({"app-0", ++epoch, Sample(0, epoch)}));
  daemon.TickOnce();
  const std::vector<Decision> latest = daemon.LatestDecisions();
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_EQ(latest[0].source, DecisionSource::kForecast);
  EXPECT_FALSE(daemon.GetAppHealth("app-0").quarantined);
  EXPECT_EQ(daemon.counters().forecast_ok, 10u + 1u);
}

TEST(ScalerDaemonTest, MovingAverageRungBeforeAnyGoodForecast) {
  ScalerDaemonOptions options = BaseOptions();
  options.shards = 1;
  FaultSpec all_throw;
  all_throw.seed = 2;
  all_throw.forecast_throw = 1.0;
  options.faults = all_throw;
  options.quarantine_threshold = 100;  // Keep it on the ladder.
  ScalerDaemon daemon(options);
  ASSERT_TRUE(daemon.Push({"app-0", 1, 4.0}));
  ASSERT_TRUE(daemon.Push({"app-1", 1, 8.0}));
  daemon.TickOnce();
  // No last-good exists yet, so the bottom rung serves the ring average.
  for (const Decision& d : daemon.LatestDecisions()) {
    EXPECT_EQ(d.source, DecisionSource::kMovingAverage);
  }
  EXPECT_DOUBLE_EQ(daemon.LatestTarget("app-0"), 4.0 * options.margin);
  EXPECT_DOUBLE_EQ(daemon.LatestTarget("app-1"), 8.0 * options.margin);
  EXPECT_EQ(daemon.counters().degraded_moving_avg, 2u);
}

TEST(ScalerDaemonTest, DeadlineMissDegradesDecision) {
  ScalerDaemonOptions options = BaseOptions();
  options.shards = 1;
  options.decision_deadline_ms = 2.0;
  options.retry.max_attempts = 3;
  options.quarantine_threshold = 100;
  // Every attempt is delayed by 3 virtual ms: the first forecast lands past
  // the 2 ms budget, so the decision must degrade (late == missed).
  FaultSpec slow;
  slow.seed = 3;
  slow.forecast_delay_prob = 1.0;
  slow.forecast_delay_ms = 3.0;
  ScalerDaemon daemon(options);
  ASSERT_TRUE(daemon.Push({"app-0", 1, 5.0}));
  daemon.TickOnce();
  ASSERT_EQ(daemon.LatestDecisions()[0].source, DecisionSource::kForecast);

  daemon.SetFaultsForTest(slow);
  ASSERT_TRUE(daemon.Push({"app-0", 2, 5.0}));
  daemon.TickOnce();
  const std::vector<Decision> latest = daemon.LatestDecisions();
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_EQ(latest[0].source, DecisionSource::kLastGood);
  const DaemonCounters counters = daemon.counters();
  EXPECT_GE(counters.deadline_misses, 1u);
}

// The crash-safety core: checkpoint at tick 30, keep daemon A running to
// tick 60, kill-and-restart daemon B from the checkpoint, replay the same
// pushes, and require B's decisions to track A's. Restore re-seeds each
// forecaster from the persisted ring (batch-equivalent warm handoff), so
// the bound is the incremental-vs-batch parity bound, not bit equality.
TEST(ScalerDaemonTest, CheckpointRestoreDecisionParity) {
  const std::string path = TempPath("restore_parity");
  ScalerDaemonOptions options = BaseOptions();
  options.checkpoint_path = path;
  const auto ids = MakeAppIds(8);

  ScalerDaemon a(options);
  for (std::uint64_t tick = 1; tick <= 30; ++tick) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(a.Push({ids[i], tick, Sample(i, tick)}));
    }
    a.TickOnce();
  }
  ASSERT_TRUE(a.Checkpoint());
  ASSERT_GT(a.counters().checkpoint_bytes, 0u);

  ScalerDaemon b(options);
  ASSERT_EQ(b.RestoreFromCheckpoint(), ids.size());
  EXPECT_EQ(b.tick_count(), 30u);
  EXPECT_EQ(b.app_count(), ids.size());
  EXPECT_EQ(b.counters().restored_apps, ids.size());
  EXPECT_EQ(b.counters().restore_incomplete, 0u);

  for (std::uint64_t tick = 31; tick <= 60; ++tick) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const MetricPush push{ids[i], tick, Sample(i, tick)};
      ASSERT_TRUE(a.Push(push));
      ASSERT_TRUE(b.Push(push));
    }
    a.TickOnce();
    b.TickOnce();
    for (const auto& id : ids) {
      const double uninterrupted = a.LatestTarget(id);
      const double restored = b.LatestTarget(id);
      EXPECT_NEAR(restored, uninterrupted,
                  1e-7 * std::max(1.0, std::abs(uninterrupted)))
          << "app " << id << " tick " << tick;
    }
  }
  std::remove(path.c_str());
}

// A record restores its own forecaster even when the daemon's prototype
// differs, and the ring keeps that forecaster's window: FFT reads two days,
// the holt prototype only kDefaultHistoryMinutes.
TEST(ScalerDaemonTest, RestoreUnderAnotherForecasterKeepsItsWindow) {
  const std::string path = TempPath("restore_other_forecaster");
  ScalerDaemonOptions options = BaseOptions();
  options.checkpoint_path = path;
  options.forecaster = "fft";
  const auto ids = MakeAppIds(2);
  constexpr std::uint64_t kCut = 3 * kDefaultHistoryMinutes / 2;

  ScalerDaemon a(options);
  for (std::uint64_t tick = 1; tick <= kCut; ++tick) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(a.Push({ids[i], tick, Sample(i, tick)}));
    }
    a.TickOnce();
  }
  ASSERT_TRUE(a.Checkpoint());

  options.forecaster = "holt";
  ScalerDaemon b(options);
  ASSERT_EQ(b.RestoreFromCheckpoint(), ids.size());
  for (std::uint64_t tick = kCut + 1; tick <= kCut + 20; ++tick) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const MetricPush push{ids[i], tick, Sample(i, tick)};
      ASSERT_TRUE(a.Push(push));
      ASSERT_TRUE(b.Push(push));
    }
    a.TickOnce();
    b.TickOnce();
    for (const auto& id : ids) {
      const double uninterrupted = a.LatestTarget(id);
      EXPECT_NEAR(b.LatestTarget(id), uninterrupted,
                  1e-9 * std::max(1.0, std::abs(uninterrupted)))
          << "app " << id << " tick " << tick;
    }
  }
  std::remove(path.c_str());
}

TEST(ScalerDaemonTest, RestoreFromTruncatedCheckpointRecoversPrefix) {
  const std::string path = TempPath("truncated");
  ScalerDaemonOptions options = BaseOptions();
  options.checkpoint_path = path;
  const auto ids = MakeAppIds(6);
  ScalerDaemon a(options);
  for (std::uint64_t tick = 1; tick <= 5; ++tick) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(a.Push({ids[i], tick, Sample(i, tick)}));
    }
    a.TickOnce();
  }
  ASSERT_TRUE(a.Checkpoint());

  // Torn write: drop the last 40% of the file, cutting mid-record.
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    blob = buffer.str();
  }
  ASSERT_FALSE(blob.empty());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size() * 3 / 5));
  }

  ScalerDaemon b(options);
  const std::size_t restored = b.RestoreFromCheckpoint();
  EXPECT_GT(restored, 0u);
  EXPECT_LT(restored, ids.size());
  EXPECT_EQ(b.counters().restore_incomplete, 1u);
  // Whatever survived is immediately servable.
  for (std::uint64_t tick = 6; tick <= 8; ++tick) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(b.Push({ids[i], tick, Sample(i, tick)}));
    }
    b.TickOnce();
  }
  EXPECT_EQ(b.app_count(), ids.size());  // Missing apps re-register from pushes.
  std::remove(path.c_str());
}

TEST(ScalerDaemonTest, RestoreFromMissingFileIsColdStart) {
  ScalerDaemonOptions options = BaseOptions();
  options.checkpoint_path = TempPath("does_not_exist");
  ScalerDaemon daemon(options);
  EXPECT_EQ(daemon.RestoreFromCheckpoint(), 0u);
  EXPECT_EQ(daemon.tick_count(), 0u);
  EXPECT_EQ(daemon.app_count(), 0u);
}

TEST(ScalerDaemonTest, PeriodicCheckpointsFallDueEveryNthTick) {
  const std::string path = TempPath("periodic");
  ScalerDaemonOptions options = BaseOptions();
  options.checkpoint_path = path;
  options.checkpoint_every_ticks = 3;
  ScalerDaemon daemon(options);
  for (std::uint64_t tick = 1; tick <= 7; ++tick) {
    ASSERT_TRUE(daemon.Push({"app-0", tick, Sample(0, tick)}));
    daemon.TickOnce();
  }
  const DaemonCounters counters = daemon.counters();
  EXPECT_EQ(counters.checkpoints, 2u);  // Ticks 3 and 6.
  EXPECT_GT(counters.checkpoint_bytes, 0u);
  EXPECT_GT(counters.checkpoint_us, 0.0);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

// The cadence counts this daemon's own ticks, not tick_count(): restored at
// tick 205, it checkpoints on its 100th tick (tick 305), not at tick 300.
TEST(ScalerDaemonTest, RestoredDaemonCountsCheckpointTicksFromItsStart) {
  const std::string path = TempPath("periodic_restored");
  ScalerDaemonOptions options = BaseOptions();
  options.checkpoint_path = path;
  std::uint64_t epoch = 1;
  {
    ScalerDaemon first(options);
    for (; epoch <= 205; ++epoch) {
      ASSERT_TRUE(first.Push({"app-0", epoch, Sample(0, epoch)}));
      first.TickOnce();
    }
    ASSERT_TRUE(first.Checkpoint());
  }
  options.checkpoint_every_ticks = 100;
  ScalerDaemon restored(options);
  ASSERT_EQ(restored.RestoreFromCheckpoint(), 1u);
  ASSERT_EQ(restored.tick_count(), 205u);
  for (int own_tick = 1; own_tick <= 100; ++own_tick, ++epoch) {
    ASSERT_TRUE(restored.Push({"app-0", epoch, Sample(0, epoch)}));
    restored.TickOnce();
    EXPECT_EQ(restored.counters().checkpoints, own_tick == 100 ? 1u : 0u)
        << "own tick " << own_tick;
  }
  DaemonCheckpoint written;
  ASSERT_TRUE(LoadDaemonCheckpointFile(path, &written));
  EXPECT_EQ(written.tick, 305u);
  std::remove(path.c_str());
}

// The writer thread publishes exactly the bytes a synchronous Checkpoint()
// of the same state writes.
TEST(ScalerDaemonTest, PeriodicCheckpointMatchesSynchronousCheckpointBytes) {
  const std::string periodic_path = TempPath("bytes_periodic");
  const std::string direct_path = TempPath("bytes_direct");
  ScalerDaemonOptions periodic = BaseOptions();
  periodic.checkpoint_path = periodic_path;
  periodic.checkpoint_every_ticks = 10;
  ScalerDaemonOptions direct = BaseOptions();
  direct.checkpoint_path = direct_path;
  const auto ids = MakeAppIds(8);
  ScalerDaemon a(periodic);
  ScalerDaemon b(direct);
  for (std::uint64_t tick = 1; tick <= 10; ++tick) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const MetricPush push{ids[i], tick, Sample(i, tick)};
      ASSERT_TRUE(a.Push(push));
      ASSERT_TRUE(b.Push(push));
    }
    a.TickOnce();
    b.TickOnce();
  }
  a.Stop();
  ASSERT_TRUE(b.Checkpoint());
  EXPECT_EQ(a.counters().checkpoints, 1u);
  const std::string written = ReadFile(periodic_path);
  ASSERT_FALSE(written.empty());
  EXPECT_EQ(written, ReadFile(direct_path));
  std::remove(periodic_path.c_str());
  std::remove(direct_path.c_str());
}

// Destroying the daemon finishes the write its last tick made due, even
// while the writer is slow.
TEST(ScalerDaemonTest, DestructorFinishesTheDueCheckpoint) {
  const std::string path = TempPath("destroy_after_due");
  ScalerDaemonOptions options = BaseOptions();
  options.checkpoint_path = path;
  options.checkpoint_every_ticks = 5;
  const auto ids = MakeAppIds(4);
  {
    ScalerDaemon daemon(options);
    daemon.SetCheckpointWriteHookForTest(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); });
    for (std::uint64_t tick = 1; tick <= 5; ++tick) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        ASSERT_TRUE(daemon.Push({ids[i], tick, Sample(i, tick)}));
      }
      daemon.TickOnce();
    }
  }
  DaemonCheckpoint loaded;
  ASSERT_TRUE(LoadDaemonCheckpointFile(path, &loaded));
  EXPECT_EQ(loaded.tick, 5u);
  EXPECT_EQ(loaded.apps.size(), ids.size());
  std::remove(path.c_str());
}

// A checkpoint that falls due while the previous write is still running
// waits for it (never skips) and charges the wait to the tick.
TEST(ScalerDaemonTest, DueCheckpointWaitsForTheWriteInFlight) {
  const std::string path = TempPath("wait_in_flight");
  ScalerDaemonOptions options = BaseOptions();
  options.checkpoint_path = path;
  options.checkpoint_every_ticks = 1;
  std::atomic<int> writes{0};  // Outlives the daemon and its writer.
  ScalerDaemon daemon(options);
  daemon.SetCheckpointWriteHookForTest([&writes] {
    if (writes.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  });
  ASSERT_TRUE(daemon.Push({"app-0", 1, 2.0}));
  daemon.TickOnce();  // Due: hands the snapshot to the writer, which holds.
  ASSERT_TRUE(daemon.Push({"app-0", 2, 3.0}));
  daemon.TickOnce();  // Due again while the first write runs.
  const DaemonCounters counters = daemon.counters();
  EXPECT_EQ(counters.checkpoint_waits, 1u);
  EXPECT_EQ(counters.checkpoints, 2u);
  EXPECT_GE(counters.checkpoint_us, 100e3);  // The wait is tick time.
  EXPECT_GT(counters.checkpoint_write_us, 0.0);
  DaemonCheckpoint loaded;
  ASSERT_TRUE(LoadDaemonCheckpointFile(path, &loaded));
  EXPECT_EQ(loaded.tick, 2u);
  std::remove(path.c_str());
}

TEST(ScalerDaemonTest, StartStopRealTimeLoopTicks) {
  ScalerDaemonOptions options = BaseOptions();
  options.tick_interval_ms = 5.0;
  ScalerDaemon daemon(options);
  ASSERT_TRUE(daemon.Push({"app-0", 1, 2.0}));
  daemon.Start();
  daemon.Start();  // Idempotent.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.tick_count() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  daemon.Stop();
  daemon.Stop();  // Idempotent.
  EXPECT_GE(daemon.tick_count(), 3u);
  EXPECT_EQ(daemon.app_count(), 1u);
}

// The accessors are safe from another thread while Start()'s tick thread
// ticks and the writer thread writes checkpoints (scripts/verify.sh runs
// this under ThreadSanitizer).
TEST(ScalerDaemonTest, AccessorsAreRaceFreeWhileTickingAndWriting) {
  const std::string path = TempPath("concurrent_accessors");
  ScalerDaemonOptions options = BaseOptions();
  options.tick_interval_ms = 1.0;
  options.checkpoint_every_ticks = 2;
  options.checkpoint_path = path;
  const auto ids = MakeAppIds(4);
  ScalerDaemon daemon(options);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(daemon.Push({ids[i], 1, Sample(i, 1)}));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::atomic<bool> done{false};
  daemon.Start();
  std::thread poller([&] {
    while (std::chrono::steady_clock::now() < deadline) {
      const DaemonCounters counters = daemon.counters();
      for (const Decision& decision : daemon.LatestDecisions()) {
        EXPECT_TRUE(std::isfinite(decision.target));
      }
      const ScalerDaemon::AppHealth health = daemon.GetAppHealth(ids[0]);
      EXPECT_TRUE(!health.known || health.observed >= 1);
      if (counters.checkpoints >= 5) {
        break;
      }
      std::this_thread::yield();
    }
    done = true;
  });
  // Producers keep pushing while the poller reads.
  for (std::uint64_t epoch = 2; !done; ++epoch) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      daemon.Push({ids[i], epoch, Sample(i, epoch)});
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  poller.join();
  daemon.Stop();
  const DaemonCounters counters = daemon.counters();
  EXPECT_GE(counters.checkpoints, 5u);
  EXPECT_EQ(counters.checkpoint_failures, 0u);
  DaemonCheckpoint loaded;
  EXPECT_TRUE(LoadDaemonCheckpointFile(path, &loaded));
  EXPECT_EQ(loaded.apps.size(), ids.size());
  std::remove(path.c_str());
}

// Nothing drains the latency buffer in Start() mode, so each shard keeps
// only its newest kLatencySamplesPerShard samples and counts the rest.
TEST(ScalerDaemonTest, LatencyRingKeepsNewestSamplesAndCountsOverwrites) {
  ScalerDaemonOptions options = BaseOptions();
  options.shards = 1;
  options.forecaster = "moving_average_1";
  ScalerDaemon daemon(options);
  constexpr std::size_t kApps = 512;
  const std::size_t capacity = ScalerDaemon::kLatencySamplesPerShard;
  const std::uint64_t ticks = capacity / kApps + 3;
  const auto ids = MakeAppIds(kApps);
  const auto push_epoch = [&](std::uint64_t epoch) {
    for (std::size_t a = 0; a < kApps; ++a) {
      ASSERT_TRUE(daemon.Push({ids[a], epoch, Sample(a, epoch)}));
    }
  };
  for (std::uint64_t epoch = 1; epoch <= ticks; ++epoch) {
    push_epoch(epoch);
    daemon.TickOnce();
  }
  const std::uint64_t decisions = kApps * ticks;
  ASSERT_GT(decisions, capacity);
  EXPECT_EQ(daemon.counters().decisions, decisions);
  EXPECT_EQ(daemon.counters().latency_overwrites, decisions - capacity);
  const std::vector<double> drained = daemon.DrainDecisionLatenciesUs();
  EXPECT_EQ(drained.size(), capacity);
  for (double us : drained) {
    EXPECT_GE(us, 0.0);
  }
  // The drain empties the ring; the next tick starts it over and nothing
  // more is overwritten.
  push_epoch(ticks + 1);
  daemon.TickOnce();
  EXPECT_EQ(daemon.DrainDecisionLatenciesUs().size(), kApps);
  EXPECT_EQ(daemon.counters().latency_overwrites, decisions - capacity);
  EXPECT_NE(daemon.counters().ToJson().find("\"latency_overwrites\": "),
            std::string::npos);
}

TEST(ScalerDaemonTest, UnknownForecasterThrows) {
  ScalerDaemonOptions options = BaseOptions();
  options.forecaster = "no-such-forecaster";
  EXPECT_THROW(ScalerDaemon daemon(options), std::invalid_argument);
}

TEST(ScalerDaemonTest, CountersToJsonIsWellFormed) {
  ScalerDaemonOptions options = BaseOptions();
  ScalerDaemon daemon(options);
  ASSERT_TRUE(daemon.Push({"app-0", 1, 2.0}));
  daemon.TickOnce();
  const std::string json = daemon.counters().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"decisions\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"pushes\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"ticks\": 1"), std::string::npos);
}

}  // namespace
}  // namespace femux
