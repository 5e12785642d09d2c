#include "src/sim/policy.h"

#include <algorithm>

namespace femux {

ForecasterPolicy::ForecasterPolicy(std::unique_ptr<Forecaster> forecaster, double margin,
                                   std::size_t history_len, bool reactive_floor)
    : forecaster_(std::move(forecaster)),
      stream_(history_len),
      margin_(margin), history_len_(history_len), reactive_floor_(reactive_floor),
      name_(std::string("policy_") + std::string(forecaster_->name())) {
  stream_.Bind(*forecaster_);
}

double ForecasterPolicy::TargetUnits(std::span<const double> demand_history) {
  if (demand_history.empty()) {
    return 0.0;
  }
  // The stream windows the history and feeds one-sample deltas to
  // forecasters with sliding-window state; other forecasters fall back to
  // the batch path on the same window.
  stream_.Sync(demand_history);
  const double predicted = stream_.Forecast();
  const double target = predicted * margin_;
  if (reactive_floor_) {
    return std::max(target, demand_history.back());
  }
  return target;
}

std::unique_ptr<ScalingPolicy> ForecasterPolicy::Clone() const {
  return std::make_unique<ForecasterPolicy>(forecaster_->Clone(), margin_, history_len_,
                                            reactive_floor_);
}

}  // namespace femux
