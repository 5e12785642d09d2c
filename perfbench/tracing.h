// Timing decorators the benchmark wraps around the library's public
// interfaces. Nothing here reaches inside src/: every span starts and ends
// at a call the benchmark can see.
//
// An app's life inside SimulateFleetStream, as seen from outside, on the
// worker thread that runs it:
//
//   MakeAppInto        factory(i)   DemandSeriesInto +     SimulateApp: one
//   (TimedSource)      (TimedPolicy ArrivalSeriesInto      TargetUnits per epoch
//                       created)                           (TimedPolicy)
//   |--- make_app ---|-------- series ---------------------|--- simulate ---|
//   ^ app start                                            ^ first call     ^ last return
//
// `series` is the gap from the end of MakeAppInto to the first TargetUnits
// call, which holds the series expansion plus the policy construction.
// `simulate_self` is the simulate span minus the time inside TargetUnits.
// An app is busy from its MakeAppInto entry to its last TargetUnits return.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/core/femux.h"
#include "src/sim/fleet.h"
#include "src/sim/policy.h"
#include "src/trace/stream.h"

namespace perfbench {

// Sums of per-app spans over one or more fleet passes. Workers fold one
// app at a time under the mutex.
struct FleetSpans {
  std::mutex mu;
  // Per-app latency (ms): trace generation start to simulation end. Filled
  // in both modes; it is the fleet workloads' request latency.
  std::vector<double> app_latency_ms;
  // Traced mode only (microseconds, summed over apps).
  double make_app_us = 0.0;
  double series_us = 0.0;
  double simulate_self_us = 0.0;
  double busy_us = 0.0;
  double decide_us = 0.0;        // TargetUnits on ordinary epochs.
  double block_switch_us = 0.0;  // TargetUnits on block-boundary epochs.
  std::uint64_t apps = 0;
  std::uint64_t decide_calls = 0;
  std::uint64_t block_switch_calls = 0;
  std::uint64_t switches = 0;  // FemuxPolicy::switch_count, summed.
};

// TraceSource decorator: stamps the app's start on the calling worker
// thread and, when tracing, times trace generation.
class TimedSource final : public femux::TraceSource {
 public:
  TimedSource(const femux::TraceSource& inner, FleetSpans* spans, bool trace)
      : inner_(&inner), spans_(spans), trace_(trace) {}

  std::string name() const override { return inner_->name(); }
  std::size_t app_count() const override { return inner_->app_count(); }
  int duration_days() const override { return inner_->duration_days(); }
  femux::AppTrace MakeApp(std::size_t index) const override;
  void MakeAppInto(std::size_t index, femux::AppTrace* out) const override;

 private:
  const femux::TraceSource* inner_;
  FleetSpans* spans_;
  bool trace_;
};

// ScalingPolicy decorator created by the factory right after the app's
// MakeAppInto on the same thread. It closes the app's spans when the
// simulator destroys it. `block_epochs` (0 = none) marks every
// block_epochs-th non-empty-history call as a block-boundary epoch, which
// is where FemuxPolicy extracts features, selects and may switch.
class TimedPolicy final : public femux::ScalingPolicy {
 public:
  TimedPolicy(std::unique_ptr<femux::ScalingPolicy> inner, FleetSpans* spans,
              bool trace, std::size_t block_epochs);
  ~TimedPolicy() override;
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;

  std::string_view name() const override { return inner_->name(); }
  double TargetUnits(std::span<const double> demand_history) override;
  std::unique_ptr<femux::ScalingPolicy> Clone() const override;

 private:
  std::unique_ptr<femux::ScalingPolicy> inner_;
  FleetSpans* spans_;
  bool trace_;
  std::size_t block_epochs_;
  Clock::time_point app_start_;
  Clock::time_point make_end_;
  Clock::time_point first_call_;
  Clock::time_point last_return_;
  bool called_ = false;
  std::size_t history_calls_ = 0;
  double decide_us_ = 0.0;
  double block_switch_us_ = 0.0;
  std::uint64_t decide_calls_ = 0;
  std::uint64_t block_switch_calls_ = 0;
};

// Wraps `factory` so each app's policy is a TimedPolicy.
femux::PolicyFactory TimedFactory(femux::PolicyFactory factory, FleetSpans* spans,
                                  bool trace, std::size_t block_epochs);

// Another source's apps in a seeded order (Fisher-Yates over DeriveSeed).
// The Azure-like population is heavy-tailed in both volume and per-app
// cost, so two independently drawn fleets of a few hundred apps differ far
// more than any regression bound; the Azure workloads therefore keep one
// population and let the seed decide the order, which decides chunk
// membership, scheduling and the trainer's row order.
class PermutedSource final : public femux::TraceSource {
 public:
  PermutedSource(const femux::TraceSource& inner, std::uint64_t seed);
  std::string name() const override { return inner_->name(); }
  std::size_t app_count() const override { return order_.size(); }
  int duration_days() const override { return inner_->duration_days(); }
  femux::AppTrace MakeApp(std::size_t index) const override {
    return inner_->MakeApp(order_[index]);
  }
  void MakeAppInto(std::size_t index, femux::AppTrace* out) const override {
    inner_->MakeAppInto(order_[index], out);
  }

 private:
  const femux::TraceSource* inner_;
  std::vector<std::size_t> order_;
};

// The first `count` apps of another source: the small slice the output
// checks rerun on one thread.
class SliceSource final : public femux::TraceSource {
 public:
  SliceSource(const femux::TraceSource& inner, std::size_t count)
      : inner_(&inner), count_(std::min(count, inner.app_count())) {}
  std::string name() const override { return inner_->name(); }
  std::size_t app_count() const override { return count_; }
  int duration_days() const override { return inner_->duration_days(); }
  femux::AppTrace MakeApp(std::size_t index) const override {
    return inner_->MakeApp(index);
  }
  void MakeAppInto(std::size_t index, femux::AppTrace* out) const override {
    inner_->MakeAppInto(index, out);
  }

 private:
  const femux::TraceSource* inner_;
  std::size_t count_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
