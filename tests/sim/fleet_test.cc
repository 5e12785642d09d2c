#include "src/sim/fleet.h"

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/baselines.h"
#include "src/core/femux.h"
#include "src/core/trainer.h"
#include "src/forecast/registry.h"
#include "src/forecast/simple.h"
#include "src/trace/ibm_generator.h"

namespace femux {
namespace {

// Give the process pool real workers even on a single-core CI machine, so
// the concurrency tests below actually run concurrently (an explicit
// FEMUX_THREADS in the environment still wins).
const bool kEnvReady = [] {
  setenv("FEMUX_THREADS", "4", 0);
  return true;
}();

Dataset SmallDataset() {
  IbmGeneratorOptions options;
  options.num_apps = 20;
  options.duration_days = 1;
  options.detail_window_minutes = 0;
  return GenerateIbmDataset(options);
}

TEST(DemandSeriesTest, MinuteEpochDividesByConcurrencyLimit) {
  AppTrace app;
  app.mean_execution_ms = 60000.0;  // Concurrency == count.
  app.minute_counts = {100.0, 50.0};
  app.config.container_concurrency = 100;
  const auto demand = DemandSeries(app, 60.0);
  ASSERT_EQ(demand.size(), 2u);
  EXPECT_DOUBLE_EQ(demand[0], 1.0);
  EXPECT_DOUBLE_EQ(demand[1], 0.5);
}

TEST(DemandSeriesTest, SubMinuteEpochsReplicateMinutes) {
  AppTrace app;
  app.mean_execution_ms = 60000.0;
  app.minute_counts = {6.0};
  app.config.container_concurrency = 1;
  const auto demand = DemandSeries(app, 10.0);
  ASSERT_EQ(demand.size(), 6u);
  for (double d : demand) {
    EXPECT_DOUBLE_EQ(d, 6.0);
  }
}

TEST(DemandSeriesTest, CoarseEpochsAverageMinutes) {
  AppTrace app;
  app.mean_execution_ms = 60000.0;
  app.minute_counts = {2.0, 4.0, 6.0, 8.0};
  app.config.container_concurrency = 1;
  const auto demand = DemandSeries(app, 120.0);
  ASSERT_EQ(demand.size(), 2u);
  EXPECT_DOUBLE_EQ(demand[0], 3.0);
  EXPECT_DOUBLE_EQ(demand[1], 7.0);
}

TEST(ArrivalSeriesTest, SubMinuteSplitsCounts) {
  AppTrace app;
  app.minute_counts = {30.0};
  const auto arrivals = ArrivalSeries(app, 10.0);
  ASSERT_EQ(arrivals.size(), 6u);
  EXPECT_DOUBLE_EQ(arrivals[0], 5.0);
}

TEST(ArrivalSeriesTest, CoarseEpochsSumCounts) {
  AppTrace app;
  app.minute_counts = {10.0, 20.0, 30.0};
  const auto arrivals = ArrivalSeries(app, 120.0);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 30.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 30.0);
}

TEST(FleetTest, AggregatesPerAppMetrics) {
  const Dataset data = SmallDataset();
  ForecasterPolicy prototype(std::make_unique<MovingAverageForecaster>(1));
  const FleetResult result = SimulateFleetUniform(data, prototype, SimOptions{});
  ASSERT_EQ(result.per_app.size(), data.apps.size());
  SimMetrics sum;
  for (const SimMetrics& m : result.per_app) {
    sum += m;
  }
  EXPECT_DOUBLE_EQ(sum.invocations, result.total.invocations);
  EXPECT_DOUBLE_EQ(sum.wasted_gb_seconds, result.total.wasted_gb_seconds);
  EXPECT_GT(result.total.invocations, 0.0);
}

TEST(FleetTest, DeterministicAcrossThreadCounts) {
  const Dataset data = SmallDataset();
  ForecasterPolicy prototype(std::make_unique<KeepAliveForecaster>(5));
  const FleetResult serial = SimulateFleetUniform(data, prototype, SimOptions{},
                                                  /*respect_app_min_scale=*/false,
                                                  /*threads=*/1);
  const FleetResult parallel = SimulateFleetUniform(data, prototype, SimOptions{},
                                                    /*respect_app_min_scale=*/false,
                                                    /*threads=*/8);
  EXPECT_DOUBLE_EQ(serial.total.cold_starts, parallel.total.cold_starts);
  EXPECT_DOUBLE_EQ(serial.total.wasted_gb_seconds, parallel.total.wasted_gb_seconds);
}

TEST(FleetTest, RespectingMinScaleReducesColdStartsAndAddsWaste) {
  const Dataset data = SmallDataset();
  ForecasterPolicy prototype(std::make_unique<MovingAverageForecaster>(1));
  const FleetResult without =
      SimulateFleetUniform(data, prototype, SimOptions{}, false);
  const FleetResult with = SimulateFleetUniform(data, prototype, SimOptions{}, true);
  EXPECT_LE(with.total.cold_starts, without.total.cold_starts);
  EXPECT_GE(with.total.allocated_gb_seconds, without.total.allocated_gb_seconds);
}

TEST(FleetTest, PerAppPolicyFactoryReceivesIndices) {
  const Dataset data = SmallDataset();
  std::vector<int> seen(data.apps.size(), 0);
  SimulateFleet(
      data,
      [&seen](int index) -> std::unique_ptr<ScalingPolicy> {
        seen[index] = 1;
        return std::make_unique<ForecasterPolicy>(
            std::make_unique<MovingAverageForecaster>(1));
      },
      SimOptions{}, false, /*threads=*/1);
  for (int s : seen) {
    EXPECT_EQ(s, 1);
  }
}

// Clone() audit (DESIGN.md §10): a policy clone must not share mutable
// state with its prototype or siblings. Simulating the *same* app many
// times concurrently through SimulateFleetUniform makes any shared RNG,
// histogram, forecaster, or workspace state show up as row divergence.
TEST(FleetTest, ClonesShareNoMutableStateAcrossPolicies) {
  ASSERT_TRUE(kEnvReady);
  const Dataset base = SmallDataset();
  Dataset duplicated;
  duplicated.duration_days = base.duration_days;
  constexpr std::size_t kCopies = 8;
  for (std::size_t i = 0; i < kCopies; ++i) {
    duplicated.apps.push_back(base.apps[0]);
  }

  std::vector<std::pair<std::string, std::unique_ptr<ScalingPolicy>>> prototypes;
  prototypes.emplace_back("knative_default", MakeKnativeDefaultPolicy());
  prototypes.emplace_back("keep_alive_10", MakeKeepAlivePolicy(10));
  prototypes.emplace_back("icebreaker", MakeIceBreakerPolicy());
  prototypes.emplace_back("policy_ar", std::make_unique<ForecasterPolicy>(
                                           MakeForecasterByName("ar")));
  prototypes.emplace_back("policy_exp_smoothing",
                          std::make_unique<ForecasterPolicy>(
                              MakeForecasterByName("exp_smoothing")));
  {
    // A compact FeMux model over the same dataset: the multiplexer carries
    // the most per-policy state (active forecaster, block buffer, margin).
    TrainerOptions options;
    options.block_minutes = 240;
    options.clusters = 2;
    options.forecaster_names = {"ar", "holt"};
    options.margins = {1.0};
    const TrainResult trained = TrainFemux(base, {0}, Rum::Default(), options);
    prototypes.emplace_back(
        "femux", std::make_unique<FemuxPolicy>(
                     std::make_shared<const FemuxModel>(trained.model)));
  }

  for (const auto& [label, prototype] : prototypes) {
    const FleetResult result =
        SimulateFleetUniform(duplicated, *prototype, SimOptions{},
                             /*respect_app_min_scale=*/false, /*threads=*/4);
    ASSERT_EQ(result.per_app.size(), kCopies);
    const SimMetrics& first = result.per_app.front();
    for (std::size_t i = 1; i < kCopies; ++i) {
      const SimMetrics& row = result.per_app[i];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(first.cold_starts),
                std::bit_cast<std::uint64_t>(row.cold_starts))
          << label << " row " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(first.cold_start_seconds),
                std::bit_cast<std::uint64_t>(row.cold_start_seconds))
          << label << " row " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(first.wasted_gb_seconds),
                std::bit_cast<std::uint64_t>(row.wasted_gb_seconds))
          << label << " row " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(first.allocated_gb_seconds),
                std::bit_cast<std::uint64_t>(row.allocated_gb_seconds))
          << label << " row " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(first.service_seconds),
                std::bit_cast<std::uint64_t>(row.service_seconds))
          << label << " row " << i;
    }
  }
}

// A throwing policy factory propagates out of SimulateFleet (the fleet
// path runs factories inside pool workers), and the pool survives to run
// the next fleet normally.
TEST(FleetTest, FactoryExceptionPropagatesAndPoolSurvives) {
  ASSERT_TRUE(kEnvReady);
  const Dataset data = SmallDataset();
  const PolicyFactory throwing = [](int index) -> std::unique_ptr<ScalingPolicy> {
    if (index == 3) {
      throw std::runtime_error("factory failure");
    }
    return std::make_unique<ForecasterPolicy>(
        std::make_unique<MovingAverageForecaster>(1));
  };
  EXPECT_THROW(SimulateFleet(data, throwing, SimOptions{}, false, /*threads=*/4),
               std::runtime_error);
  // The pool must stay serviceable after cancellation.
  ForecasterPolicy prototype(std::make_unique<MovingAverageForecaster>(1));
  const FleetResult after =
      SimulateFleetUniform(data, prototype, SimOptions{}, false, /*threads=*/4);
  EXPECT_EQ(after.per_app.size(), data.apps.size());
  EXPECT_GT(after.total.invocations, 0.0);
}

}  // namespace
}  // namespace femux
