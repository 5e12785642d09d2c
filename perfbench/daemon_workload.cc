// daemon_serve: the online serving path. One producer (this thread) pushes
// one sample per tenant, then TickOnce drains the shard queues and decides
// every tenant on the pool. Each round is a fresh daemon over the same
// pushes, so every round replays the same tick schedule (holt refits and
// periodic checkpoints land on the same ticks) and must decide identically.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/workloads.h"
#include "src/core/rum.h"
#include "src/serve/scaler_daemon.h"
#include "src/sim/simulator.h"

namespace perfbench {
namespace {

constexpr std::size_t kApps = 512;
constexpr std::uint64_t kTicksPerRound = 400;  // Timed ticks after registration.
constexpr std::size_t kShards = 8;
constexpr std::size_t kCheckpointEvery = 100;
constexpr std::size_t kCheckApps = 64;
constexpr int kMinRounds = 3;
constexpr double kTickSeconds = 2.0;  // Knative autoscaler tick.
constexpr double kPi = 3.14159265358979323846;

double Unit(std::uint64_t bits) {
  return static_cast<double>(DeriveSeed(bits, 0) >> 11) * 0x1.0p-53;
}

// One tenant's demand (average concurrency per tick): a daily-style cycle
// around a per-tenant level, with noise and rare bursts. Pure in
// (seed, app, epoch).
class Tenants {
 public:
  explicit Tenants(std::uint64_t seed) : seed_(seed) {
    for (std::size_t i = 0; i < kApps; ++i) {
      const std::uint64_t s = DeriveSeed(seed, 100 + i);
      Shape shape;
      shape.level = 1.0 + 11.0 * Unit(s);
      shape.amplitude = 0.5 * shape.level * Unit(s + 1);
      shape.period = 30.0 + 270.0 * Unit(s + 2);
      shape.phase = 2.0 * kPi * Unit(s + 3);
      shapes_.push_back(shape);
      ids_.push_back("tenant-" + std::to_string(i));
    }
  }

  double Sample(std::size_t app, std::uint64_t epoch) const {
    const Shape& s = shapes_[app];
    const std::uint64_t bits = DeriveSeed(seed_ ^ (app * 0x100000001b3ull), epoch);
    const double noise = 2.0 * Unit(bits) - 1.0;
    const double burst = bits % 50 == 0 ? 2.0 * s.level : 0.0;
    const double cycle =
        s.amplitude * std::sin(2.0 * kPi * static_cast<double>(epoch) / s.period + s.phase);
    return std::max(0.0, s.level + cycle + 0.2 * s.level * noise + burst);
  }

  const std::vector<std::string>& ids() const { return ids_; }

 private:
  struct Shape {
    double level = 0.0;
    double amplitude = 0.0;
    double period = 1.0;
    double phase = 0.0;
  };
  std::uint64_t seed_;
  std::vector<Shape> shapes_;
  std::vector<std::string> ids_;
};

femux::ScalerDaemonOptions DaemonOptions(const std::string& checkpoint_path) {
  femux::ScalerDaemonOptions options;
  options.shards = kShards;
  options.queue_capacity = 1 << 14;
  options.forecaster = "holt";
  options.history_window = 64;
  options.fallback_window = 30;
  // Faults are off, so a decision only misses its deadline when the host
  // stalls the worker; a generous budget keeps the decisions (and so the
  // digests) independent of machine noise.
  options.decision_deadline_ms = 100.0;
  options.checkpoint_every_ticks = checkpoint_path.empty() ? 0 : kCheckpointEvery;
  options.checkpoint_path = checkpoint_path;
  return options;
}

struct Round {
  double setup_s = 0.0;
  double serve_s = 0.0;  // Push rounds + TickOnce, timed ticks only.
  std::vector<double> tick_ms;
  double push_us = 0.0;  // Traced: summed per-Push time.
  std::uint64_t pushes = 0;
  std::uint64_t digest = 0;
  femux::DaemonCounters counters;
  double decision_p50_us = 0.0;
  double decision_p99_us = 0.0;
};

// Runs one fresh daemon over `apps` tenants. `targets[a][k]`, when given,
// receives tenant a's target after timed tick k.
Round RunRound(const Tenants& tenants, std::size_t apps,
               const femux::ScalerDaemonOptions& options, bool trace,
               std::vector<std::vector<double>>* targets) {
  Round round;
  const std::vector<std::string>& ids = tenants.ids();
  const auto setup_start = Clock::now();
  femux::ScalerDaemon daemon(options);
  for (std::size_t i = 0; i < apps; ++i) {
    daemon.Push({ids[i], 1, tenants.Sample(i, 1)});
  }
  daemon.TickOnce();  // Registers every tenant.
  round.setup_s = SecondsSince(setup_start);

  std::vector<std::size_t> order;  // Decision position -> tenant index.
  {
    std::unordered_map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < apps; ++i) {
      index.emplace(ids[i], i);
    }
    for (const femux::Decision& d : daemon.LatestDecisions()) {
      order.push_back(index.at(d.app));
    }
  }
  if (targets != nullptr) {
    targets->assign(apps, std::vector<double>(kTicksPerRound, 0.0));
  }
  round.tick_ms.reserve(kTicksPerRound);
  std::uint64_t digest = Fnv1a("");
  for (std::uint64_t k = 0; k < kTicksPerRound; ++k) {
    const std::uint64_t epoch = k + 2;
    const auto push_start = Clock::now();
    for (std::size_t i = 0; i < apps; ++i) {
      const femux::MetricPush push{ids[i], epoch, tenants.Sample(i, epoch)};
      if (trace) {
        const auto start = Clock::now();
        daemon.Push(push);
        round.push_us += MicrosBetween(start, Clock::now());
      } else {
        daemon.Push(push);
      }
    }
    round.pushes += apps;
    const auto tick_start = Clock::now();
    daemon.TickOnce();
    const auto tick_end = Clock::now();
    round.tick_ms.push_back(MicrosBetween(tick_start, tick_end) / 1000.0);
    round.serve_s += MicrosBetween(push_start, tick_end) / 1e6;

    const std::vector<femux::Decision> decisions = daemon.LatestDecisions();
    for (std::size_t p = 0; p < decisions.size(); ++p) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(decisions[p].target);
      digest = Fnv1a(std::string(reinterpret_cast<const char*>(&bits), sizeof(bits)),
                     digest);
      digest = Fnv1a(std::string(1, static_cast<char>(decisions[p].source)), digest);
      if (targets != nullptr && p < order.size()) {
        (*targets)[order[p]][k] = decisions[p].target;
      }
    }
  }
  round.digest = digest;
  round.counters = daemon.counters();
  const std::vector<double> latencies = daemon.DrainDecisionLatenciesUs();
  if (trace) {
    round.decision_p50_us = Percentile(latencies, 0.50);
    round.decision_p99_us = Percentile(latencies, 0.99);
  }
  return round;
}

// Replays the tenants' demand against the daemon's targets: the target
// decided after tick k provisions epoch k + 1.
double DecisionRum(const Tenants& tenants,
                   const std::vector<std::vector<double>>& targets) {
  femux::SimOptions sim;
  sim.epoch_seconds = kTickSeconds;
  femux::SimMetrics total;
  std::vector<double> demand(kTicksPerRound - 1);
  std::vector<double> plan(kTicksPerRound - 1);
  for (std::size_t a = 0; a < targets.size(); ++a) {
    for (std::uint64_t k = 0; k + 1 < kTicksPerRound; ++k) {
      demand[k] = tenants.Sample(a, k + 3);
      plan[k] = targets[a][k];
    }
    total += femux::SimulatePlan(demand, {}, plan, sim);
  }
  return femux::Rum::Default().Evaluate(total);
}

}  // namespace

Result RunDaemonServe(const RunConfig& config) {
  Result result;
  const Tenants tenants(DeriveSeed(config.seed, 6));
  const femux::ScalerDaemonOptions options =
      DaemonOptions(config.scratch_dir + "/daemon.ckpt");

  std::vector<Round> untraced;
  std::vector<Round> traced;
  std::vector<std::vector<double>> targets;
  const auto run = [&](bool trace) {
    const bool first = untraced.empty() && traced.empty();
    Round round = RunRound(tenants, kApps, options, trace, first ? &targets : nullptr);
    const femux::DaemonCounters& c = round.counters;
    const std::uint64_t off_rung = c.decisions - c.forecast_ok;
    result.CountAttempts(c.decisions + c.drops, c.drops + off_rung);
    (trace ? traced : untraced).push_back(std::move(round));
  };
  if (config.trace) {
    RepeatFor(config.seconds, 1, [&] {
      run(false);
      run(true);
    });
  } else {
    RepeatFor(config.seconds, kMinRounds, [&] { run(false); });
  }

  bool digests_equal = true;
  for (const std::vector<Round>* rounds : {&untraced, &traced}) {
    for (const Round& round : *rounds) {
      digests_equal = digests_equal && round.digest == untraced.front().digest;
    }
  }
  result.Check(digests_equal, "LatestDecisions digest identical across " +
                                  std::to_string(untraced.size() + traced.size()) +
                                  " rounds");

  femux::ScalerDaemonOptions serial = DaemonOptions("");
  serial.parallel_shards = false;
  std::vector<std::vector<double>> slice_targets;
  RunRound(tenants, kCheckApps, serial, false, &slice_targets);
  bool slice_equal = true;
  for (std::size_t a = 0; a < kCheckApps; ++a) {
    for (std::uint64_t k = 0; k < kTicksPerRound; ++k) {
      slice_equal = slice_equal && std::bit_cast<std::uint64_t>(slice_targets[a][k]) ==
                                       std::bit_cast<std::uint64_t>(targets[a][k]);
    }
  }
  result.Check(slice_equal, "decisions of the first " + std::to_string(kCheckApps) +
                                " tenants: serial shards == parallel shards");
  std::uint64_t deadline_misses = 0;
  for (const std::vector<Round>* rounds : {&untraced, &traced}) {
    for (const Round& round : *rounds) {
      deadline_misses += round.counters.deadline_misses;
    }
  }
  result.Note("samples: " + std::to_string(untraced.size()) + " untraced, " +
              std::to_string(traced.size()) + " traced rounds of " +
              std::to_string(kTicksPerRound) + " ticks x " + std::to_string(kApps) +
              " tenants; tick = one TickOnce; deadline misses " +
              std::to_string(deadline_misses));

  const auto decisions_per_s = [](const std::vector<Round>& rounds) {
    std::vector<double> rates;
    for (const Round& round : rounds) {
      rates.push_back(static_cast<double>(kApps * kTicksPerRound) / round.serve_s);
    }
    return Median(rates);
  };
  if (config.trace) {
    double push_us = 0.0;
    std::uint64_t pushes = 0;
    double ingest_us = 0.0;
    double decide_us = 0.0;
    double checkpoint_us = 0.0;
    double ticks = 0.0;
    double drops = 0.0;
    double degraded = 0.0;
    std::vector<double> p50;
    std::vector<double> p99;
    for (const Round& round : traced) {
      const femux::DaemonCounters& c = round.counters;
      push_us += round.push_us;
      pushes += round.pushes;
      ingest_us += c.ingest_us;
      decide_us += c.decide_us;
      checkpoint_us += c.checkpoint_us;
      ticks += static_cast<double>(c.ticks);
      drops += static_cast<double>(c.drops);
      degraded += static_cast<double>(c.degraded_last_good + c.degraded_moving_avg +
                                      c.quarantined_decisions);
      p50.push_back(round.decision_p50_us);
      p99.push_back(round.decision_p99_us);
    }
    result.Note("serve.*_per_tick and serve.checkpoint_bytes are program-reported "
                "(DaemonCounters); the rest is timed from outside");
    result.Add("serve.push_us", push_us / static_cast<double>(pushes), "us");
    result.Add("serve.decision_p50_us", Median(p50), "us");
    result.Add("serve.decision_p99_us", Median(p99), "us");
    result.Add("serve.ingest_us_per_tick", ingest_us / ticks, "us");
    result.Add("serve.decide_us_per_tick", decide_us / ticks, "us");
    result.Add("serve.checkpoint_us_per_tick", checkpoint_us / ticks, "us");
    result.Add("serve.checkpoint_bytes",
               static_cast<double>(traced.back().counters.checkpoint_bytes), "bytes");
    result.Add("serve.drops", drops, "count");
    result.Add("serve.degraded", degraded, "count");
    result.Add("trace.apps_per_s", decisions_per_s(traced), "1/s");
    result.Add("trace.overhead_share",
               1.0 - decisions_per_s(traced) / decisions_per_s(untraced), "share");
    return result;
  }

  std::vector<double> tick_ms;
  std::vector<double> setup_s;
  for (const Round& round : untraced) {
    tick_ms.insert(tick_ms.end(), round.tick_ms.begin(), round.tick_ms.end());
    setup_s.push_back(round.setup_s);
  }
  // Every tick decides every tenant once, so apps served per second and
  // decisions per second are the same count here.
  const double rate = decisions_per_s(untraced);
  result.Add("apps_per_s", rate, "1/s");
  result.Add("decisions_per_s", rate, "1/s");
  result.Add("tick_p50_ms", Percentile(tick_ms, 0.50), "ms");
  result.Add("tick_p99_ms", Percentile(tick_ms, 0.99), "ms");
  result.Add("rum", DecisionRum(tenants, targets), "rum");
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
