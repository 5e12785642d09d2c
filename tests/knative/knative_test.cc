// Knative Serving deployment model and FeMux service tests.
#include <cmath>
#include <gtest/gtest.h>

#include "src/forecast/registry.h"
#include "src/knative/femux_service.h"
#include "src/knative/serving_sim.h"
#include "src/sim/policy.h"
#include "src/trace/azure_generator.h"

namespace femux {
namespace {

Dataset TinyDataset(int apps = 10) {
  AzureGeneratorOptions options;
  options.num_apps = apps;
  options.duration_days = 1;
  return GenerateAzureDataset(options);
}

ServingOptions FastServing() {
  ServingOptions options;
  options.replay_minutes = 4 * 60;
  return options;
}

TEST(ServingSimTest, IdleAppConsumesNothing) {
  Dataset data;
  AppTrace idle;
  idle.id = "idle";
  idle.minute_counts.assign(kMinutesPerDay, 0.0);
  data.duration_days = 1;
  data.apps = {idle};
  const ServingResult r = SimulateServing(data, FastServing());
  EXPECT_DOUBLE_EQ(r.total.invocations, 0.0);
  EXPECT_DOUBLE_EQ(r.total.allocated_gb_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.total.cold_starts, 0.0);
}

TEST(ServingSimTest, SteadyAppColdStartsOnceThenStaysWarm) {
  Dataset data;
  AppTrace app;
  app.id = "steady";
  app.mean_execution_ms = 6000.0;  // Concurrency = count / 10.
  app.config.container_concurrency = 10;
  app.minute_counts.assign(kMinutesPerDay, 300.0);  // Concurrency 30 -> pods.
  data.duration_days = 1;
  data.apps = {app};
  const ServingResult r = SimulateServing(data, FastServing());
  EXPECT_GT(r.total.invocations, 0.0);
  // Scale-up happens in the first ticks, then the deployment is stable:
  // a handful of cold pods at startup, none afterwards.
  EXPECT_GT(r.total.cold_starts, 0.0);
  EXPECT_LE(r.total.cold_starts, 10.0);
  EXPECT_GT(r.per_app[0].peak_pods, 0.0);
}

TEST(ServingSimTest, MinScaleAvoidsInitialColdStart) {
  Dataset data;
  AppTrace app;
  app.id = "minscale";
  app.mean_execution_ms = 6000.0;
  app.config.container_concurrency = 10;
  app.config.min_scale = 5;
  app.minute_counts.assign(kMinutesPerDay, 0.0);
  app.minute_counts[60] = 100.0;  // Concurrency 10 after an idle hour.
  data.duration_days = 1;
  data.apps = {app};
  const ServingResult r = SimulateServing(data, FastServing());
  EXPECT_DOUBLE_EQ(r.total.cold_starts, 0.0);
  EXPECT_GT(r.total.allocated_gb_seconds, 0.0);  // Floor pods are billed.
}

TEST(ServingSimTest, PredictiveHookReducesColdWorkOnPeriodicTraffic) {
  // Cron-style spikes every 30 minutes: the reactive autoscaler eats a cold
  // start per spike; an oracle hook that predicts the next minute exactly
  // pre-warms and avoids them.
  Dataset data;
  AppTrace app;
  app.id = "cron";
  app.mean_execution_ms = 60000.0;  // Concurrency == count.
  app.config.container_concurrency = 1;
  app.minute_counts.assign(kMinutesPerDay, 0.0);
  for (int m = 0; m < kMinutesPerDay; m += 30) {
    app.minute_counts[m] = 5.0;
  }
  data.duration_days = 1;
  data.apps = {app};

  const ServingResult reactive = SimulateServing(data, FastServing());

  // Oracle: knows the true demand of the minute that is starting.
  const auto oracle = [&app](int, std::span<const double> minute_units) {
    return app.minute_counts[minute_units.size() - 1] *
           app.mean_execution_ms / 1000.0 / 60.0;
  };
  const ServingResult predictive = SimulateServing(data, FastServing(), oracle);
  EXPECT_LT(predictive.total.cold_start_seconds, reactive.total.cold_start_seconds);
}

TEST(ServingSimTest, PolicyHookMaintainsPerAppClones) {
  const Dataset data = TinyDataset(4);
  ForecasterPolicy prototype(MakeForecasterByName("exp_smoothing"));
  const PredictiveHook hook = MakePolicyHook(prototype, data.apps.size());
  const ServingResult r = SimulateServing(data, FastServing(), hook);
  EXPECT_EQ(r.per_app.size(), data.apps.size());
}

TEST(FemuxServiceTest, ReportsLatenciesAndCapacity) {
  FemuxModel model;
  model.forecaster_names = {"exp_smoothing", "markov_chain", "moving_average_1"};
  FemuxServiceOptions options;
  options.request_count = 500;
  const FemuxServiceReport report = EvaluateFemuxService(model, options);
  EXPECT_GT(report.mean_service_ms, 0.0);
  EXPECT_GE(report.p99_latency_ms, report.p50_latency_ms);
  EXPECT_GE(report.mean_latency_ms, report.mean_service_ms * 0.5);
  EXPECT_GT(report.apps_per_pod, 0.0);
  EXPECT_GT(report.classify_latency_ms, 0.0);
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_LE(report.utilization, 1.0);
}

TEST(FemuxServiceTest, MorePodsLowerUtilization) {
  FemuxModel model;
  model.forecaster_names = {"exp_smoothing"};
  FemuxServiceOptions one;
  one.request_count = 2000;
  one.requests_per_second = 50.0;
  FemuxServiceOptions four = one;
  four.pods = 4;
  const auto r1 = EvaluateFemuxService(model, one);
  const auto r4 = EvaluateFemuxService(model, four);
  // Each report times its own ~µs forecasts on the wall clock, so one
  // preemption in either run can swamp the 4x load split. Utilization per
  // ms of mean service time cancels that machine-speed factor and leaves
  // the queueing property: four pods share the same arrivals.
  ASSERT_GT(r1.mean_service_ms, 0.0);
  ASSERT_GT(r4.mean_service_ms, 0.0);
  EXPECT_LT(r4.utilization / r4.mean_service_ms, r1.utilization / r1.mean_service_ms);
}

}  // namespace
}  // namespace femux
