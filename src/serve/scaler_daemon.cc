#include "src/serve/scaler_daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/forecast/registry.h"
#include "src/sim/thread_pool.h"

namespace femux {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since).count();
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double UniformFromBits(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// FNV-1a over the app id: the shard map and the fault-injection stream id
// must agree across platforms (std::hash is implementation-defined).
std::uint64_t HashAppId(const std::string& id) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : id) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

void BusySpinMs(double ms) {
  const auto start = Clock::now();
  while (ElapsedMs(start) < ms) {
    // Burn cycles: injected latency must show up in measured latency.
  }
}

void AccumulateCounters(DaemonCounters* total, const DaemonCounters& part) {
  total->pushes += part.pushes;
  total->drops += part.drops;
  total->corrupt_rejected += part.corrupt_rejected;
  total->stale_or_duplicate += part.stale_or_duplicate;
  total->epoch_gaps += part.epoch_gaps;
  total->late_applied += part.late_applied;
  total->decisions += part.decisions;
  total->forecast_ok += part.forecast_ok;
  total->degraded_last_good += part.degraded_last_good;
  total->degraded_moving_avg += part.degraded_moving_avg;
  total->quarantined_decisions += part.quarantined_decisions;
  total->retries += part.retries;
  total->deadline_misses += part.deadline_misses;
  total->forecast_faults += part.forecast_faults;
  total->quarantines += part.quarantines;
  total->half_open_probes += part.half_open_probes;
  total->quarantine_reopens += part.quarantine_reopens;
  total->quarantine_releases += part.quarantine_releases;
  total->clock_skew_applied += part.clock_skew_applied;
  total->latency_overwrites += part.latency_overwrites;
  total->checkpoints += part.checkpoints;
  total->checkpoint_failures += part.checkpoint_failures;
  total->checkpoint_bytes += part.checkpoint_bytes;
  total->checkpoint_waits += part.checkpoint_waits;
  total->restored_apps += part.restored_apps;
  total->restore_incomplete += part.restore_incomplete;
  total->ticks += part.ticks;
  total->ingest_us += part.ingest_us;
  total->decide_us += part.decide_us;
  total->checkpoint_us += part.checkpoint_us;
  total->checkpoint_write_us += part.checkpoint_write_us;
}

double MicrosSince(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since).count();
}

}  // namespace

const char* DecisionSourceName(DecisionSource source) {
  switch (source) {
    case DecisionSource::kForecast:
      return "forecast";
    case DecisionSource::kLastGood:
      return "last_good";
    case DecisionSource::kMovingAverage:
      return "moving_average";
    case DecisionSource::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

std::string DaemonCounters::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"pushes\": " << pushes << ", \"drops\": " << drops
      << ", \"corrupt_rejected\": " << corrupt_rejected
      << ", \"stale_or_duplicate\": " << stale_or_duplicate
      << ", \"epoch_gaps\": " << epoch_gaps << ", \"late_applied\": " << late_applied
      << ", \"decisions\": " << decisions << ", \"forecast_ok\": " << forecast_ok
      << ", \"degraded_last_good\": " << degraded_last_good
      << ", \"degraded_moving_avg\": " << degraded_moving_avg
      << ", \"quarantined_decisions\": " << quarantined_decisions
      << ", \"retries\": " << retries << ", \"deadline_misses\": " << deadline_misses
      << ", \"forecast_faults\": " << forecast_faults
      << ", \"quarantines\": " << quarantines
      << ", \"half_open_probes\": " << half_open_probes
      << ", \"quarantine_reopens\": " << quarantine_reopens
      << ", \"quarantine_releases\": " << quarantine_releases
      << ", \"clock_skew_applied\": " << clock_skew_applied
      << ", \"latency_overwrites\": " << latency_overwrites
      << ", \"checkpoints\": " << checkpoints
      << ", \"checkpoint_failures\": " << checkpoint_failures
      << ", \"checkpoint_bytes\": " << checkpoint_bytes
      << ", \"checkpoint_waits\": " << checkpoint_waits
      << ", \"restored_apps\": " << restored_apps
      << ", \"restore_incomplete\": " << restore_incomplete << ", \"ticks\": " << ticks
      << ", \"ingest_us\": " << ingest_us << ", \"decide_us\": " << decide_us
      << ", \"checkpoint_us\": " << checkpoint_us
      << ", \"checkpoint_write_us\": " << checkpoint_write_us << "}";
  return out.str();
}

ScalerDaemon::ScalerDaemon(const ScalerDaemonOptions& options)
    : options_(options), injector_(options.faults) {
  if (options_.shards == 0) {
    options_.shards = 1;
  }
  prototype_ = MakeForecasterByName(options_.forecaster);
  if (prototype_ == nullptr) {
    throw std::invalid_argument("ScalerDaemon: unknown forecaster '" +
                                options_.forecaster + "'");
  }
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ScalerDaemon::~ScalerDaemon() { Stop(); }

std::size_t ScalerDaemon::ShardIndex(const std::string& app) const {
  return HashAppId(app) % shards_.size();
}

std::uint64_t ScalerDaemon::AppStream(const std::string& app) {
  return HashAppId(app);
}

bool ScalerDaemon::Push(const MetricPush& push) {
  const std::uint64_t stream = AppStream(push.app);
  Shard& shard = *shards_[ShardIndex(push.app)];
  MetricPush item = push;
  bool duplicate = false;
  bool reorder = false;
  bool late = false;
  if (injector_.enabled()) {
    if (injector_.Fire(FaultSite::kCorruptPush, stream)) {
      item.value = std::numeric_limits<double>::quiet_NaN();
    }
    duplicate = injector_.Fire(FaultSite::kDupPush, stream);
    reorder = injector_.Fire(FaultSite::kReorderPush, stream);
    late = injector_.Fire(FaultSite::kLatePush, stream);
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  const std::size_t copies = duplicate ? 2 : 1;
  bool accepted = false;
  for (std::size_t i = 0; i < copies; ++i) {
    if (shard.queue.size() + shard.delayed.size() >= options_.queue_capacity) {
      ++shard.counters.drops;
      continue;
    }
    if (late) {
      shard.delayed.push_back(item);
    } else {
      shard.queue.push_back(item);
      if (reorder && shard.queue.size() >= 2) {
        std::swap(shard.queue[shard.queue.size() - 1], shard.queue[shard.queue.size() - 2]);
      }
    }
    ++shard.counters.pushes;
    accepted = true;
  }
  return accepted;
}

const ScalerDaemon::AppState* ScalerDaemon::FindApp(const Shard& shard,
                                                    const std::string& app) {
  const auto it = shard.slots.find(app);
  return it == shard.slots.end() ? nullptr : &shard.apps[it->second];
}

void ScalerDaemon::ApplyPush(Shard& shard, const MetricPush& push) {
  // Validation before registration: an app only exists once it has
  // delivered at least one well-formed sample.
  if (!std::isfinite(push.value) || push.value < 0.0) {
    ++shard.counters.corrupt_rejected;
    return;
  }
  auto [it, created] = shard.slots.try_emplace(push.app, shard.apps.size());
  if (created) {
    shard.apps.emplace_back(options_.history_window);
  }
  AppState& state = shard.apps[it->second];
  if (created) {
    state.id = push.app;
    state.forecaster = prototype_->Clone();
    state.stream.Bind(*state.forecaster);
  }
  if (state.has_epoch && push.epoch <= state.last_epoch) {
    ++shard.counters.stale_or_duplicate;
    return;
  }
  if (state.has_epoch && push.epoch > state.last_epoch + 1) {
    ++shard.counters.epoch_gaps;
  }
  state.last_epoch = push.epoch;
  state.has_epoch = true;
  state.stream.Append(push.value);
}

void ScalerDaemon::DrainShard(Shard& shard) {
  std::lock_guard<std::mutex> lock(shard.mu);
  // Late-push fault: samples held during the previous tick are older than
  // anything queued since, so they apply first.
  if (!shard.delayed.empty()) {
    shard.counters.late_applied += shard.delayed.size();
    shard.queue.insert(shard.queue.begin(), shard.delayed.begin(),
                       shard.delayed.end());
    shard.delayed.clear();
  }
  while (!shard.queue.empty()) {
    const MetricPush push = std::move(shard.queue.front());
    shard.queue.pop_front();
    ApplyPush(shard, push);
  }
}

double ScalerDaemon::MovingAverageTarget(const AppState& state) const {
  const std::span<const double> window = state.stream.Window();
  if (window.empty()) {
    return 0.0;
  }
  const std::size_t n = std::min(window.size(), std::max<std::size_t>(
                                                    options_.fallback_window, 1));
  const std::span<const double> tail = window.last(n);
  const double sum = std::accumulate(tail.begin(), tail.end(), 0.0);
  return ClampPrediction(sum / static_cast<double>(n)) * options_.margin;
}

Decision ScalerDaemon::DecideApp(Shard& shard, AppState& state, std::uint64_t tick) {
  Decision decision;
  decision.app = state.id;
  decision.tick = tick;

  // Open breaker: the tenant is served (never dropped), but only from the
  // reactive rung — its forecaster has proven itself unhealthy. When the
  // open window lapses the breaker half-opens, and release becomes
  // error-rate-driven: single-attempt probes below, not a timer event.
  if (state.breaker == AppState::Breaker::kOpen) {
    if (state.open_until > tick) {
      decision.target = MovingAverageTarget(state);
      decision.source = DecisionSource::kQuarantined;
      ++shard.counters.quarantined_decisions;
      state.last_target = decision.target;
      return decision;
    }
    state.breaker = AppState::Breaker::kHalfOpen;
    state.probe_successes = 0;
  }
  const bool probing = state.breaker == AppState::Breaker::kHalfOpen;
  if (probing) {
    ++shard.counters.half_open_probes;
  }

  const std::uint64_t stream = AppStream(state.id);
  const auto start = Clock::now();
  double virtual_ms = 0.0;  // Injected delays + backoffs in virtual mode.
  const auto elapsed_ms = [&]() {
    double elapsed = ElapsedMs(start) + virtual_ms;
    if (injector_.enabled() && injector_.Fire(FaultSite::kClockSkew, stream)) {
      const double sign = injector_.Draw(FaultSite::kClockSkew, stream) < 0.5 ? -1.0 : 1.0;
      elapsed += sign * options_.faults.clock_skew_ms;
      ++shard.counters.clock_skew_applied;
    }
    return elapsed;
  };
  const auto burn_ms = [&](double ms) {
    if (options_.spin_on_injected_delay) {
      BusySpinMs(ms);
    } else {
      virtual_ms += ms;
    }
  };

  bool success = false;
  double value = 0.0;
  // Half-open probes are single-attempt: one clean forecast is the signal;
  // burning the retry budget on a still-broken forecaster is not.
  const int max_attempts = probing ? 1 : std::max(options_.retry.max_attempts, 1);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (elapsed_ms() > options_.decision_deadline_ms) {
      ++shard.counters.deadline_misses;
      break;
    }
    if (injector_.enabled() && injector_.Fire(FaultSite::kForecastDelay, stream)) {
      burn_ms(options_.faults.forecast_delay_ms);
    }
    bool faulted = false;
    try {
      if (injector_.enabled() && injector_.Fire(FaultSite::kForecastThrow, stream)) {
        throw std::runtime_error("injected forecast fault");
      }
      value = state.stream.Forecast();
      success = true;
    } catch (...) {
      // Anything the forecast path throws — injected or real — is a
      // per-app fault, never a tick-loop failure.
      faulted = true;
    }
    if (faulted) {
      ++shard.counters.forecast_faults;
      ++state.health.faults;
    }
    if (success) {
      if (elapsed_ms() > options_.decision_deadline_ms) {
        // The forecast arrived but the budget is blown: a late plan is a
        // missed plan. Degrade rather than ship it late.
        ++shard.counters.deadline_misses;
        success = false;
      }
      break;
    }
    if (attempt + 1 < max_attempts) {
      ++shard.counters.retries;
      const double exp_backoff =
          std::min(options_.retry.base_backoff_ms * std::ldexp(1.0, attempt),
                   options_.retry.max_backoff_ms);
      const double u = UniformFromBits(SplitMix64(
          options_.jitter_seed ^ SplitMix64(stream) ^
          SplitMix64(tick * 0x9E37u + static_cast<std::uint64_t>(attempt))));
      burn_ms(exp_backoff * (1.0 + options_.retry.jitter * u));
    }
  }

  if (success) {
    decision.target = ClampPrediction(value) * options_.margin;
    decision.source = DecisionSource::kForecast;
    state.last_good = decision.target;
    state.has_last_good = true;
    state.consecutive_faults = 0;
    ++shard.counters.forecast_ok;
    if (probing &&
        ++state.probe_successes >= options_.quarantine_probe_successes) {
      state.breaker = AppState::Breaker::kClosed;
      state.probe_successes = 0;
      state.reopen_count = 0;
      ++shard.counters.quarantine_releases;
    }
  } else {
    if (state.has_last_good) {
      decision.target = state.last_good;
      decision.source = DecisionSource::kLastGood;
      ++shard.counters.degraded_last_good;
      ++state.health.degraded_last_good;
    } else {
      decision.target = MovingAverageTarget(state);
      decision.source = DecisionSource::kMovingAverage;
      ++shard.counters.degraded_moving_avg;
      ++state.health.degraded_moving_avg;
    }
    if (probing) {
      // Failed probe: re-open with exponential backoff on the window
      // (doubled from the first failure), so a persistently broken tenant
      // costs ever fewer probe attempts.
      const std::uint32_t shift = std::min<std::uint32_t>(state.reopen_count + 1, 16);
      const std::uint64_t window =
          std::min(std::max<std::uint64_t>(options_.quarantine_ticks, 1) << shift,
                   std::max<std::uint64_t>(options_.quarantine_max_backoff_ticks, 1));
      state.breaker = AppState::Breaker::kOpen;
      state.open_until = tick + window;
      ++state.reopen_count;
      state.consecutive_faults = 0;
      state.stream.Reset();
      ++shard.counters.quarantine_reopens;
    } else if (++state.consecutive_faults >= options_.quarantine_threshold) {
      state.breaker = AppState::Breaker::kOpen;
      state.open_until = tick + std::max<std::uint64_t>(options_.quarantine_ticks, 1);
      state.consecutive_faults = 0;
      state.probe_successes = 0;
      state.reopen_count = 0;
      // The forecaster's sliding state is suspect after repeated faults;
      // re-seed from the ring when the app comes back.
      state.stream.Reset();
      ++shard.counters.quarantines;
    }
  }
  state.last_target = decision.target;
  return decision;
}

void ScalerDaemon::DecideShard(Shard& shard, std::uint64_t tick) {
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.latest.clear();
  for (const auto& [id, slot] : shard.slots) {
    AppState& state = shard.apps[slot];
    const auto start = Clock::now();
    Decision decision = DecideApp(shard, state, tick);
    const double latency_us = ElapsedMs(start) * 1000.0;
    if (shard.latencies_us.size() < kLatencySamplesPerShard) {
      shard.latencies_us.push_back(latency_us);
    } else {
      shard.latencies_us[shard.latency_next] = latency_us;
      shard.latency_next = (shard.latency_next + 1) % kLatencySamplesPerShard;
      ++shard.counters.latency_overwrites;
    }
    ++shard.counters.decisions;
    shard.latest.push_back(std::move(decision));
  }
}

void ScalerDaemon::TickOnce() {
  const std::uint64_t tick = tick_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  ++ticks_run_;

  const auto work = [&](std::size_t shard_index) {
    Shard& shard = *shards_[shard_index];
    const auto ingest_start = Clock::now();
    DrainShard(shard);
    const auto decide_start = Clock::now();
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.counters.ingest_us +=
          std::chrono::duration<double, std::micro>(decide_start - ingest_start)
              .count();
    }
    DecideShard(shard, tick);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.counters.decide_us +=
        std::chrono::duration<double, std::micro>(Clock::now() - decide_start)
            .count();
  };
  if (options_.parallel_shards && shards_.size() > 1 && ConfiguredThreadCount() > 1) {
    ThreadPool::Instance().ParallelFor(shards_.size(), work);
  } else {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      work(i);
    }
  }

  // A due checkpoint costs the tick a copy, after the decisions so the
  // snapshot sees this tick's state: the writer thread formats and
  // publishes it. A write still in flight is waited for, never skipped.
  bool waited = false;
  double checkpoint_us = 0.0;
  if (options_.checkpoint_every_ticks > 0 && !options_.checkpoint_path.empty() &&
      ticks_run_ % options_.checkpoint_every_ticks == 0) {
    const auto checkpoint_start = Clock::now();
    waited = WaitForCheckpointWrite();
    StartCheckpointWrite(SnapshotCheckpoint());
    checkpoint_us = MicrosSince(checkpoint_start);
  }
  std::lock_guard<std::mutex> lock(counters_mu_);
  ++global_.ticks;
  global_.checkpoint_us += checkpoint_us;
  global_.checkpoint_waits += waited ? 1 : 0;
}

bool ScalerDaemon::Checkpoint() {
  const auto checkpoint_start = Clock::now();
  WaitForCheckpointWrite();
  if (options_.checkpoint_path.empty()) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++global_.checkpoint_failures;
    global_.checkpoint_us += MicrosSince(checkpoint_start);
    return false;
  }
  const double truncate_fraction = SnapshotCheckpoint();
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    global_.checkpoint_us += MicrosSince(checkpoint_start);
  }
  return WriteCheckpoint(truncate_fraction);
}

double ScalerDaemon::SnapshotCheckpoint() {
  // Every field is assigned into the kept records, so once the fleet is
  // registered and its windows are full, a snapshot of closed-form
  // forecasters allocates nothing (tests/serve/checkpoint_alloc_test.cc).
  snapshot_.tick = tick_count();
  std::size_t n = 0;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [id, slot] : shard.slots) {
      const AppState& state = shard.apps[slot];
      if (n == snapshot_.apps.size()) {
        snapshot_.apps.emplace_back();
      }
      DaemonAppCheckpoint& app = snapshot_.apps[n++];
      app.id = id;
      app.forecaster.assign(state.forecaster->name());
      app.observed = state.stream.observed();
      app.last_epoch = state.last_epoch;
      app.has_epoch = state.has_epoch;
      app.has_last_good = state.has_last_good;
      app.last_good = state.last_good;
      // Checkpoint-format compatibility: the breaker persists through the
      // legacy quarantined_until field — the open deadline when open, 0
      // otherwise. A half-open breaker restores as closed; if the faults
      // persist, the ladder simply re-opens it (probe/backoff progress is
      // bookkeeping, not plan state, so losing it across a crash is safe).
      app.quarantined_until =
          state.breaker == AppState::Breaker::kOpen ? state.open_until : 0;
      app.consecutive_faults = state.consecutive_faults;
      const std::span<const double> window = state.stream.Window();
      app.ring.assign(window.begin(), window.end());
      // Learned forecasters persist their trained parameters (not
      // reconstructible from the ring, DESIGN.md §15); closed-form
      // forecasters keep the record format unchanged.
      if (state.forecaster->HasOpaqueState()) {
        app.forecaster_state = state.forecaster->SaveOpaqueState();
      } else {
        app.forecaster_state.clear();
      }
    }
  }
  snapshot_.apps.resize(n);
  // The fault is drawn here, on the tick thread, so the injector's draw
  // sequence never depends on when the writer runs.
  if (injector_.enabled() && injector_.Fire(FaultSite::kCheckpointTruncate, 0)) {
    return injector_.Draw(FaultSite::kCheckpointTruncate, 0);
  }
  return -1.0;
}

bool ScalerDaemon::WriteCheckpoint(double truncate_fraction) {
  const auto write_start = Clock::now();
  long long truncate_to = -1;
  if (truncate_fraction >= 0.0) {
    // Torn-write model: measure the full snapshot, then publish a prefix.
    std::ostringstream sized;
    SaveDaemonCheckpoint(snapshot_, sized);
    const std::size_t total = sized.str().size();
    truncate_to = static_cast<long long>(truncate_fraction * static_cast<double>(total));
  }
  std::size_t bytes = 0;
  const bool ok =
      SaveDaemonCheckpointFile(snapshot_, options_.checkpoint_path, &bytes, truncate_to);
  std::lock_guard<std::mutex> lock(counters_mu_);
  if (ok) {
    ++global_.checkpoints;
    global_.checkpoint_bytes = bytes;
  } else {
    ++global_.checkpoint_failures;
  }
  global_.checkpoint_write_us += MicrosSince(write_start);
  return ok;
}

void ScalerDaemon::StartCheckpointWrite(double truncate_fraction) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (!writer_thread_.joinable()) {
    // Started lazily: a daemon that never checkpoints never pays for it.
    writer_stop_ = false;
    writer_thread_ = std::thread([this]() { CheckpointWriterLoop(); });
  }
  pending_truncate_fraction_ = truncate_fraction;
  write_pending_ = true;
  writer_cv_.notify_all();
}

void ScalerDaemon::CheckpointWriterLoop() {
  std::unique_lock<std::mutex> lock(writer_mu_);
  while (true) {
    writer_cv_.wait(lock, [this]() { return write_pending_ || writer_stop_; });
    if (!write_pending_) {
      return;  // Stopped with nothing left to write.
    }
    const double truncate_fraction = pending_truncate_fraction_;
    lock.unlock();
    if (write_hook_) {
      write_hook_();
    }
    WriteCheckpoint(truncate_fraction);
    lock.lock();
    write_pending_ = false;
    writer_cv_.notify_all();
  }
}

bool ScalerDaemon::WaitForCheckpointWrite() const {
  std::unique_lock<std::mutex> lock(writer_mu_);
  if (!write_pending_) {
    return false;
  }
  writer_cv_.wait(lock, [this]() { return !write_pending_; });
  return true;
}

void ScalerDaemon::StopCheckpointWriter() {
  std::thread writer;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    writer_stop_ = true;
    writer = std::move(writer_thread_);
  }
  writer_cv_.notify_all();
  if (writer.joinable()) {
    writer.join();  // The loop finishes a pending write before it returns.
  }
}

std::size_t ScalerDaemon::RestoreFromCheckpoint() {
  WaitForCheckpointWrite();
  DaemonCheckpoint checkpoint;
  const bool complete =
      LoadDaemonCheckpointFile(options_.checkpoint_path, &checkpoint);
  if (!complete && checkpoint.apps.empty() && checkpoint.tick == 0) {
    return 0;  // Missing/unreadable/empty: cold start.
  }
  if (!complete) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++global_.restore_incomplete;
  }
  if (checkpoint.tick > tick_count()) {
    tick_count_.store(checkpoint.tick, std::memory_order_relaxed);
  }
  std::size_t restored = 0;
  for (DaemonAppCheckpoint& app : checkpoint.apps) {
    Shard& shard = *shards_[ShardIndex(app.id)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, created] = shard.slots.try_emplace(app.id, shard.apps.size());
    if (!created) {
      continue;  // Live state wins over the snapshot.
    }
    shard.apps.emplace_back(options_.history_window);
    AppState& state = shard.apps[it->second];
    state.id = app.id;
    std::unique_ptr<Forecaster> forecaster = MakeForecasterByName(app.forecaster);
    state.forecaster = forecaster != nullptr ? std::move(forecaster)
                                             : prototype_->Clone();
    state.last_epoch = app.last_epoch;
    state.has_epoch = app.has_epoch;
    state.last_good = app.last_good;
    state.has_last_good = app.has_last_good;
    state.consecutive_faults = app.consecutive_faults;
    // Trained parameters load BEFORE the window re-seed so the seeded fold
    // runs under the restored weights — that ordering is what gives
    // kill-restart decision parity for learned forecasters (a failed load
    // falls back to the fresh instance, which re-trains from its window).
    if (!app.forecaster_state.empty() && state.forecaster->HasOpaqueState()) {
      state.forecaster->LoadOpaqueState(app.forecaster_state);
    }
    // Warm-resume: Bind sizes the ring for the restored forecaster, Restore
    // seeds it from the persisted ring, and the next Forecast() serves from
    // that state (DESIGN.md §11).
    state.stream.Bind(*state.forecaster);
    state.stream.Restore(app.ring, app.observed);
    if (app.quarantined_until > tick_count()) {
      // An open breaker restores open with its persisted deadline; the
      // half-open probe machinery then takes over lazily on the decision
      // path (probe/backoff progress intentionally restarts from zero).
      state.breaker = AppState::Breaker::kOpen;
      state.open_until = app.quarantined_until;
    }
    ++restored;
  }
  std::lock_guard<std::mutex> lock(counters_mu_);
  global_.restored_apps += restored;
  return restored;
}

DaemonCounters ScalerDaemon::counters() const {
  WaitForCheckpointWrite();
  DaemonCounters total;
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    total = global_;
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    AccumulateCounters(&total, shard->counters);
  }
  return total;
}

std::size_t ScalerDaemon::app_count() const {
  std::size_t count = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    count += shard->slots.size();
  }
  return count;
}

std::vector<Decision> ScalerDaemon::LatestDecisions() const {
  std::vector<Decision> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.insert(out.end(), shard->latest.begin(), shard->latest.end());
  }
  return out;
}

double ScalerDaemon::LatestTarget(const std::string& app) const {
  const Shard& shard = *shards_[ShardIndex(app)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const AppState* state = FindApp(shard, app);
  if (state == nullptr) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return state->last_target;
}

std::vector<double> ScalerDaemon::DrainDecisionLatenciesUs() {
  std::vector<double> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const auto oldest = shard->latencies_us.begin() +
                        static_cast<std::ptrdiff_t>(shard->latency_next);
    out.insert(out.end(), oldest, shard->latencies_us.end());
    out.insert(out.end(), shard->latencies_us.begin(), oldest);
    shard->latencies_us.clear();
    shard->latency_next = 0;
  }
  return out;
}

ScalerDaemon::AppHealth ScalerDaemon::GetAppHealth(const std::string& app) const {
  const Shard& shard = *shards_[ShardIndex(app)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const AppState* state = FindApp(shard, app);
  if (state == nullptr) {
    return AppHealth{};
  }
  AppHealth health = state->health;
  health.known = true;
  health.observed = state->stream.observed();
  // Half-open is "recovering", not quarantined: probes are already being
  // served from the real forecaster.
  health.quarantined = state->breaker == AppState::Breaker::kOpen &&
                       state->open_until > tick_count();
  return health;
}

void ScalerDaemon::SetFaultsForTest(const FaultSpec& spec) {
  options_.faults = spec;
  injector_.Reset(spec);
}

void ScalerDaemon::SetCheckpointWriteHookForTest(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  write_hook_ = std::move(hook);
}

void ScalerDaemon::Start() {
  std::lock_guard<std::mutex> lock(run_mu_);
  if (running_) {
    return;
  }
  running_ = true;
  stop_requested_ = false;
  tick_thread_ = std::thread([this]() {
    const auto interval = std::chrono::duration<double, std::milli>(
        std::max(options_.tick_interval_ms, 1.0));
    auto next = Clock::now() + std::chrono::duration_cast<Clock::duration>(interval);
    std::unique_lock<std::mutex> run_lock(run_mu_);
    while (!stop_requested_) {
      if (run_cv_.wait_until(run_lock, next, [this]() { return stop_requested_; })) {
        break;
      }
      run_lock.unlock();
      TickOnce();
      run_lock.lock();
      next += std::chrono::duration_cast<Clock::duration>(interval);
    }
  });
}

void ScalerDaemon::Stop() {
  bool running = false;
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    running = running_;
    if (running_) {
      stop_requested_ = true;
    }
  }
  if (running) {
    run_cv_.notify_all();
    if (tick_thread_.joinable()) {
      tick_thread_.join();
    }
    std::lock_guard<std::mutex> lock(run_mu_);
    running_ = false;
  }
  // After the tick thread, so a checkpoint its last tick made due is
  // written too.
  StopCheckpointWriter();
}

}  // namespace femux
