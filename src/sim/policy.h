// Scaling-policy interface for the platform simulator, plus the adapter
// that turns any Forecaster into a predictive policy.
//
// A policy sees the demand history of one application in compute-unit terms
// (average concurrency divided by the container-concurrency limit) and
// returns the number of units to provision for the next epoch. The
// simulator applies the paper's overriding rules on top (§4.3.5): no
// mid-execution preemption, and units provisioned by a cold start stay
// alive until the end of the interval.
#ifndef SRC_SIM_POLICY_H_
#define SRC_SIM_POLICY_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "src/forecast/forecaster.h"

namespace femux {

class ScalingPolicy {
 public:
  virtual ~ScalingPolicy() = default;

  virtual std::string_view name() const = 0;

  // Units to provision for the next epoch given the demand history
  // (oldest-first, one sample per epoch). May return fractional values;
  // the simulator takes the ceiling.
  virtual double TargetUnits(std::span<const double> demand_history) = 0;

  virtual std::unique_ptr<ScalingPolicy> Clone() const = 0;
};

// Wraps a Forecaster as a policy: target = one-step forecast of demand,
// optionally inflated by a safety margin (Knative uses a target-utilization
// headroom; 1.0 means none). With `reactive_floor`, the target never drops
// below the last observed demand — deployed predictive scalers keep the
// reactive path as a safety net (the paper's Knative prototype retains
// panic-mode scaling under FeMux, §5.2), so the forecast only *adds*
// pre-warmed capacity.
class ForecasterPolicy final : public ScalingPolicy {
 public:
  ForecasterPolicy(std::unique_ptr<Forecaster> forecaster, double margin = 1.0,
                   std::size_t history_len = kDefaultHistoryMinutes,
                   bool reactive_floor = false);

  std::string_view name() const override { return name_; }
  double TargetUnits(std::span<const double> demand_history) override;
  std::unique_ptr<ScalingPolicy> Clone() const override;

  Forecaster& forecaster() { return *forecaster_; }

 private:
  std::unique_ptr<Forecaster> forecaster_;
  ForecastStream stream_;
  double margin_;
  std::size_t history_len_;
  bool reactive_floor_;
  std::string name_;
};

}  // namespace femux

#endif  // SRC_SIM_POLICY_H_
