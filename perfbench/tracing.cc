#include "perfbench/tracing.h"

#include <utility>

namespace perfbench {
namespace {

// Where the current app on this worker thread began; read by the policy the
// factory builds next on the same thread.
struct AppStamp {
  Clock::time_point start;
  Clock::time_point make_end;
};
thread_local AppStamp tl_app;

}  // namespace

femux::AppTrace TimedSource::MakeApp(std::size_t index) const {
  femux::AppTrace app;
  MakeAppInto(index, &app);
  return app;
}

void TimedSource::MakeAppInto(std::size_t index, femux::AppTrace* out) const {
  tl_app.start = Clock::now();
  inner_->MakeAppInto(index, out);
  if (trace_) {
    tl_app.make_end = Clock::now();
    const double us = MicrosBetween(tl_app.start, tl_app.make_end);
    std::lock_guard<std::mutex> lock(spans_->mu);
    spans_->make_app_us += us;
  }
}

TimedPolicy::TimedPolicy(std::unique_ptr<femux::ScalingPolicy> inner,
                         FleetSpans* spans, bool trace, std::size_t block_epochs)
    : inner_(std::move(inner)), spans_(spans), trace_(trace),
      block_epochs_(block_epochs), app_start_(tl_app.start),
      make_end_(tl_app.make_end) {}

double TimedPolicy::TargetUnits(std::span<const double> demand_history) {
  if (!trace_) {
    return inner_->TargetUnits(demand_history);
  }
  const auto start = Clock::now();
  const double target = inner_->TargetUnits(demand_history);
  const auto end = Clock::now();
  if (!called_) {
    first_call_ = start;
    called_ = true;
  }
  last_return_ = end;
  const double us = MicrosBetween(start, end);
  // FemuxPolicy ignores an empty history; every other call feeds one sample
  // to the block accumulator and the block completes on every
  // block_epochs-th sample.
  const bool boundary = !demand_history.empty() && block_epochs_ > 0 &&
                        ++history_calls_ % block_epochs_ == 0;
  if (boundary) {
    block_switch_us_ += us;
    ++block_switch_calls_;
  } else {
    decide_us_ += us;
    ++decide_calls_;
  }
  return target;
}

TimedPolicy::~TimedPolicy() {
  const auto end = trace_ && called_ ? last_return_ : Clock::now();
  const double latency_ms = MicrosBetween(app_start_, end) / 1000.0;
  const auto* femux_policy = dynamic_cast<const femux::FemuxPolicy*>(inner_.get());
  std::lock_guard<std::mutex> lock(spans_->mu);
  spans_->app_latency_ms.push_back(latency_ms);
  if (!trace_) {
    return;
  }
  const double policy_us = decide_us_ + block_switch_us_;
  ++spans_->apps;
  spans_->busy_us += MicrosBetween(app_start_, end);
  if (called_) {
    spans_->series_us += MicrosBetween(make_end_, first_call_);
    spans_->simulate_self_us += MicrosBetween(first_call_, last_return_) - policy_us;
  }
  spans_->decide_us += decide_us_;
  spans_->block_switch_us += block_switch_us_;
  spans_->decide_calls += decide_calls_;
  spans_->block_switch_calls += block_switch_calls_;
  if (femux_policy != nullptr) {
    spans_->switches += static_cast<std::uint64_t>(femux_policy->switch_count());
  }
}

std::unique_ptr<femux::ScalingPolicy> TimedPolicy::Clone() const {
  return std::make_unique<TimedPolicy>(inner_->Clone(), spans_, trace_, block_epochs_);
}

PermutedSource::PermutedSource(const femux::TraceSource& inner, std::uint64_t seed)
    : inner_(&inner), order_(inner.app_count()) {
  for (std::size_t i = 0; i < order_.size(); ++i) {
    order_[i] = i;
  }
  for (std::size_t i = order_.size(); i > 1; --i) {
    const std::size_t j = DeriveSeed(seed, i) % i;
    std::swap(order_[i - 1], order_[j]);
  }
}

femux::PolicyFactory TimedFactory(femux::PolicyFactory factory, FleetSpans* spans,
                                  bool trace, std::size_t block_epochs) {
  return [factory = std::move(factory), spans, trace,
          block_epochs](int index) -> std::unique_ptr<femux::ScalingPolicy> {
    return std::make_unique<TimedPolicy>(factory(index), spans, trace, block_epochs);
  };
}

}  // namespace perfbench
