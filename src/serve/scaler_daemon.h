// Fault-tolerant multi-tenant online scaler daemon (DESIGN.md §13).
//
// This is the long-running service form of the serving hot path: queue-proxy
// style metric pushes from many applications arrive concurrently into
// bounded per-shard queues (backpressure = drop + count, never block or
// grow unbounded), and each 2 s autoscaler tick drains the queues and
// produces one scaling decision per app. Per-app
// serving state is the same ForecastStream (series ring, observed count,
// forecaster state) the simulator's policies use (DESIGN.md §7/§11),
// sharded by app-id hash so tick work parallelizes over shards on the
// process thread pool.
//
// Robustness is structural, not bolted on:
//  - Every per-app decision runs under a deadline with a degradation
//    ladder: incremental forecast (with bounded retry + exponential
//    backoff + jitter for transient faults) → last successfully forecast
//    plan → Knative-style moving average of the ring. Each rung is
//    counted per app and globally.
//  - A watchdog opens a per-app circuit breaker when the forecaster
//    faults repeatedly: while the breaker is open the app is served from
//    the moving-average rung (never dropped), so one poisoned tenant
//    cannot take down the tick loop or starve its neighbors. When the
//    open window lapses the breaker half-opens and probes with
//    single-attempt forecasts; `quarantine_probe_successes` consecutive
//    clean probes close it, and a failed probe re-opens it with
//    exponential backoff — release is error-rate-driven, not a fixed
//    tick count.
//  - Malformed ingestion (non-finite/negative values, duplicate or
//    out-of-order epochs) is rejected per push with typed accounting; a
//    forward epoch gap is accepted (the ring just misses samples) and
//    counted. The checkpoint loader applies the same sample checks, so
//    the stream only ever holds samples a push could have delivered.
//  - Crash safety: the daemon periodically checkpoints every app's ring +
//    resilience bookkeeping through src/core/serialize's torn-write-proof
//    record format (atomic tmp + rename), and a restarted daemon
//    warm-resumes from whatever valid prefix survives. The tick only
//    copies the records; one background writer formats and publishes
//    them.
//
// All failure behavior is driveable by the deterministic fault injector in
// src/serve/fault.h, so chaos tests replay byte-identical fault schedules.
//
// Threading model: Push() is safe from any number of producer threads.
// TickOnce()/Start()/Stop()/Checkpoint()/RestoreFromCheckpoint() must be
// serialized by the caller (Start() owns the tick thread in real-time
// mode). Counter/decision/health accessors are safe from any thread,
// concurrently with pushes, ticks and checkpoint writes: they take the
// shard locks and the counter lock.
//
// A due periodic checkpoint copies every app's record into one reused
// snapshot on the tick thread (under each shard lock, after the tick's
// decisions) and hands it to a writer thread, started at the first due
// checkpoint, which formats, writes and renames the file. At most one
// write is in flight: a checkpoint that falls due while one is still
// running waits for it (counted in checkpoint_waits) rather than skipping,
// so the cadence, the file contents and the fault schedule never depend
// on timing. Checkpoint(), RestoreFromCheckpoint(), Stop(), the destructor
// and counters() first wait for a write in flight.
#ifndef SRC_SERVE_SCALER_DAEMON_H_
#define SRC_SERVE_SCALER_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/serialize.h"
#include "src/forecast/forecaster.h"
#include "src/serve/fault.h"

namespace femux {

// One queue-proxy metric sample: the average concurrency observed for
// `app` during scaling epoch `epoch`. Epochs are per-app monotone.
struct MetricPush {
  std::string app;
  std::uint64_t epoch = 0;
  double value = 0.0;
};

struct RetryPolicy {
  int max_attempts = 3;           // Total forecast attempts per decision.
  double base_backoff_ms = 0.5;   // First retry backoff.
  double max_backoff_ms = 8.0;    // Exponential growth cap.
  double jitter = 0.5;            // Backoff multiplied by 1 + jitter * U[0,1).
};

struct ScalerDaemonOptions {
  std::size_t shards = 4;
  std::size_t queue_capacity = 4096;  // Per shard; overflow drops (backpressure).
  double tick_interval_ms = 2000.0;   // Knative autoscaler tick (§3.2).
  double decision_deadline_ms = 5.0;  // Per-app decision budget (§5.2).
  std::string forecaster = "holt";    // Registry name for per-app forecasters.
  std::size_t history_window = kDefaultHistoryMinutes;
  double margin = 1.0;                // Forecast headroom multiplier.
  // Moving-average rung: mean of the last `fallback_window` ring samples
  // (Knative's stable-mode 60 s window at 2 s ticks = 30 samples).
  std::size_t fallback_window = 30;
  RetryPolicy retry;
  std::uint32_t quarantine_threshold = 3;  // Consecutive faulted decisions.
  std::uint64_t quarantine_ticks = 8;      // Initial breaker-open window.
  // Half-open release: consecutive clean single-attempt probes needed to
  // close the breaker, and the cap on the exponentially backed-off open
  // window a failed probe re-arms (quarantine_ticks << reopens, capped).
  std::uint32_t quarantine_probe_successes = 2;
  std::uint64_t quarantine_max_backoff_ticks = 64;
  std::size_t checkpoint_every_ticks = 0;  // 0 = no periodic checkpoints.
  std::string checkpoint_path;
  FaultSpec faults;            // Deterministic injection; default: disabled.
  std::uint64_t jitter_seed = 0x5ca1ab1e;  // Backoff-jitter RNG seed.
  bool parallel_shards = true;  // ParallelFor over shards in TickOnce().
  // Injected forecast delays and retry backoffs normally advance a virtual
  // clock that counts against the deadline (deterministic, test-friendly).
  // The load bench flips this to burn real time so latency percentiles
  // reflect the injected spikes.
  bool spin_on_injected_delay = false;
};

enum class DecisionSource : int {
  kForecast = 0,     // Incremental forecast succeeded within deadline.
  kLastGood,         // Degraded to the last successfully forecast plan.
  kMovingAverage,    // Degraded to the reactive moving-average rung.
  kQuarantined,      // App quarantined; served from the moving average.
};

struct Decision {
  std::string app;
  double target = 0.0;
  DecisionSource source = DecisionSource::kForecast;
  std::uint64_t tick = 0;
};

// Health counters, aggregated over shards. Everything the resilience layer
// does is observable here; the bench exports this block as JSON next to
// the cache/SIMD capability blocks.
struct DaemonCounters {
  // Ingestion.
  std::uint64_t pushes = 0;            // Accepted into a queue.
  std::uint64_t drops = 0;             // Rejected: queue full (backpressure).
  std::uint64_t corrupt_rejected = 0;  // Non-finite or negative value.
  std::uint64_t stale_or_duplicate = 0;  // Epoch <= newest applied epoch.
  std::uint64_t epoch_gaps = 0;        // Forward epoch jumps > +1.
  std::uint64_t late_applied = 0;      // Held a tick by the late-push fault.
  // Decisions.
  std::uint64_t decisions = 0;
  std::uint64_t forecast_ok = 0;
  std::uint64_t degraded_last_good = 0;
  std::uint64_t degraded_moving_avg = 0;
  std::uint64_t quarantined_decisions = 0;
  std::uint64_t retries = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t forecast_faults = 0;   // Forecast attempts that threw.
  std::uint64_t quarantines = 0;       // Breaker-open entries (from closed).
  std::uint64_t half_open_probes = 0;  // Single-attempt half-open decisions.
  std::uint64_t quarantine_reopens = 0;   // Failed probes re-arming the breaker.
  std::uint64_t quarantine_releases = 0;  // Breakers closed by clean probes.
  std::uint64_t clock_skew_applied = 0;
  std::uint64_t latency_overwrites = 0;  // Latency samples lost to the ring.
  // Checkpoints.
  std::uint64_t checkpoints = 0;          // Successful writes.
  std::uint64_t checkpoint_failures = 0;  // Failed writes.
  std::uint64_t checkpoint_bytes = 0;  // Size of the newest checkpoint.
  std::uint64_t checkpoint_waits = 0;  // Due ticks that waited for a write.
  std::uint64_t restored_apps = 0;
  std::uint64_t restore_incomplete = 0;  // Restores that recovered a prefix.
  // Tick-phase timings (per-component breakdown, Li et al. style).
  std::uint64_t ticks = 0;
  double ingest_us = 0.0;
  double decide_us = 0.0;
  // Checkpoint time on the calling thread: the snapshot copy, the
  // hand-off and any wait for the write before it.
  double checkpoint_us = 0.0;
  // Formatting, writing and renaming, wherever it ran.
  double checkpoint_write_us = 0.0;

  std::string ToJson() const;
};

class ScalerDaemon {
 public:
  explicit ScalerDaemon(const ScalerDaemonOptions& options);
  ~ScalerDaemon();

  ScalerDaemon(const ScalerDaemon&) = delete;
  ScalerDaemon& operator=(const ScalerDaemon&) = delete;

  // Thread-safe ingestion. Returns false when the push was not accepted
  // (shard queue full, i.e. backpressure) — the caller may retry later.
  // Injected push faults (corrupt/duplicate/reorder/late) are applied here,
  // before the queue, modelling a lossy queue-proxy → autoscaler path.
  bool Push(const MetricPush& push);

  // One autoscaler tick: drains every shard queue, then runs the decision
  // ladder for every registered app (breaker open→half-open transitions
  // happen lazily here, on the decision path), then makes the periodic
  // checkpoint when this is the daemon's checkpoint_every_ticks-th,
  // 2 x checkpoint_every_ticks-th, ... TickOnce() since construction (not
  // tick_count(), which a restore moves). Deterministic given the same
  // pushes, options, and fault spec.
  void TickOnce();

  // Real-time mode: a background thread calls TickOnce() every
  // tick_interval_ms until Stop(). Stop() is idempotent and also runs in
  // the destructor; it also finishes a checkpoint write in flight and ends
  // the writer thread, real-time loop or not.
  void Start();
  void Stop();

  // Snapshots all per-app state through src/core/serialize (atomic tmp +
  // rename; torn-write-proof record format) on the calling thread, after
  // any periodic write in flight. Returns false on IO failure. Requires
  // options.checkpoint_path to be set.
  bool Checkpoint();

  // Warm-resumes from options.checkpoint_path. Apps present in the valid
  // prefix of the checkpoint are restored with their rings re-seeded into
  // fresh forecasters; returns the number of apps restored (0 on a
  // missing/unreadable file — the daemon simply starts cold).
  std::size_t RestoreFromCheckpoint();

  // Aggregated across shards. Waits for a checkpoint write in flight, so
  // a read after TickOnce() counts every checkpoint that tick made due.
  DaemonCounters counters() const;
  std::size_t app_count() const;
  std::uint64_t tick_count() const {
    return tick_count_.load(std::memory_order_relaxed);
  }

  // Decisions produced by the most recent tick, ordered by (shard, app id)
  // — deterministic.
  std::vector<Decision> LatestDecisions() const;

  // Newest target for one app; NaN when the app is unknown.
  double LatestTarget(const std::string& app) const;

  // Per-decision wall latencies (microseconds) recorded since the last
  // drain, oldest first per shard; the load bench computes p50/p99 from
  // these. Each shard keeps only its newest kLatencySamplesPerShard samples
  // (older ones are overwritten and counted in latency_overwrites), so a
  // daemon that nobody drains holds a bounded buffer.
  std::vector<double> DrainDecisionLatenciesUs();
  static constexpr std::size_t kLatencySamplesPerShard = std::size_t{1} << 16;

  // Degradation/fault counters for one app (testing/inspection).
  struct AppHealth {
    bool known = false;
    bool quarantined = false;
    std::uint64_t degraded_last_good = 0;
    std::uint64_t degraded_moving_avg = 0;
    std::uint64_t faults = 0;
    std::uint64_t observed = 0;  // Samples the app's stream has observed.
  };
  AppHealth GetAppHealth(const std::string& app) const;

  // Replaces the fault spec (deterministic chaos phases in tests: run N
  // clean ticks, then inject). Not thread-safe against an active tick.
  void SetFaultsForTest(const FaultSpec& spec);

  // Runs `hook` on the writer thread before each periodic write, so tests
  // can hold the writer busy. Not thread-safe against a write in flight.
  void SetCheckpointWriteHookForTest(std::function<void()> hook);

 private:
  struct AppState {
    // Per-app circuit breaker: kClosed = normal ladder; kOpen = serve the
    // moving-average rung until `open_until`; kHalfOpen = single-attempt
    // probes until `quarantine_probe_successes` consecutive clean ones
    // close it (a failed probe re-opens with exponential backoff).
    enum class Breaker : std::uint8_t { kClosed, kOpen, kHalfOpen };

    explicit AppState(std::size_t window_hint) : stream(window_hint) {}

    std::string id;
    std::unique_ptr<Forecaster> forecaster;
    ForecastStream stream;
    std::uint64_t last_epoch = 0;
    bool has_epoch = false;
    double last_good = 0.0;
    bool has_last_good = false;
    std::uint32_t consecutive_faults = 0;
    Breaker breaker = Breaker::kClosed;
    std::uint64_t open_until = 0;       // Tick the open window lapses.
    std::uint32_t probe_successes = 0;  // Consecutive clean half-open probes.
    std::uint32_t reopen_count = 0;     // Failed probes; backoff exponent.
    double last_target = 0.0;
    AppHealth health;  // known/quarantined/observed filled on read.
  };

  struct Shard {
    mutable std::mutex mu;
    std::deque<MetricPush> queue;
    std::vector<MetricPush> delayed;  // Late-push fault: applied next tick.
    // Dense app slab: per-app records live contiguously so the decision
    // walk streams through memory instead of chasing map nodes at fleet
    // scale. `slots` keeps the id-ordered view (deterministic walks,
    // by-id lookup); slots are stable because apps are never dropped.
    std::vector<AppState> apps;
    std::map<std::string, std::size_t> slots;
    DaemonCounters counters;
    // Ring of the newest decision latencies; once full, `latency_next` is
    // the oldest sample and the next one overwritten.
    std::vector<double> latencies_us;
    std::size_t latency_next = 0;
    std::vector<Decision> latest;
  };

  std::size_t ShardIndex(const std::string& app) const;
  static std::uint64_t AppStream(const std::string& app);
  // By-id slab lookup; nullptr when unknown. Caller holds the shard lock.
  static const AppState* FindApp(const Shard& shard, const std::string& app);
  void DrainShard(Shard& shard);
  void DecideShard(Shard& shard, std::uint64_t tick);
  void ApplyPush(Shard& shard, const MetricPush& push);
  Decision DecideApp(Shard& shard, AppState& state, std::uint64_t tick);
  double MovingAverageTarget(const AppState& state) const;
  // Copies every app's record into snapshot_, shards in order and slots by
  // id, each under its shard lock, and draws the torn-write fault. Returns
  // the drawn prefix fraction, or -1 for a whole file.
  double SnapshotCheckpoint();
  // Formats and publishes snapshot_, then counts the result.
  bool WriteCheckpoint(double truncate_fraction);
  // Hands snapshot_ to the writer thread, starting it if needed.
  void StartCheckpointWrite(double truncate_fraction);
  void CheckpointWriterLoop();
  // Blocks until no write is in flight; true when it had to wait.
  bool WaitForCheckpointWrite() const;
  // Finishes a write in flight and joins the writer thread.
  void StopCheckpointWriter();

  ScalerDaemonOptions options_;
  std::unique_ptr<Forecaster> prototype_;
  FaultInjector injector_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Written by the tick thread, read by accessors on any thread (relaxed:
  // it is a progress counter, never a synchronization point).
  std::atomic<std::uint64_t> tick_count_{0};
  // TickOnce() calls since construction: the periodic checkpoint's clock.
  std::uint64_t ticks_run_ = 0;
  // Tick/checkpoint/restore counters, written by the tick and writer
  // threads and read by counters() on any thread.
  mutable std::mutex counters_mu_;
  DaemonCounters global_;

  // The reused checkpoint snapshot. While write_pending_ it belongs to the
  // writer thread; otherwise to the tick (or Checkpoint()) thread.
  DaemonCheckpoint snapshot_;
  mutable std::mutex writer_mu_;
  mutable std::condition_variable writer_cv_;
  bool write_pending_ = false;  // snapshot_ handed off, not yet written.
  bool writer_stop_ = false;
  double pending_truncate_fraction_ = -1.0;
  std::function<void()> write_hook_;
  std::thread writer_thread_;

  std::thread tick_thread_;
  std::mutex run_mu_;
  std::condition_variable run_cv_;
  bool running_ = false;
  bool stop_requested_ = false;
};

const char* DecisionSourceName(DecisionSource source);

}  // namespace femux

#endif  // SRC_SERVE_SCALER_DAEMON_H_
