// Golden-parity tests for the training pipeline: the workspace-reusing
// feature extractor and the block table the trainer's fold builds must
// reproduce the straightforward implementations exactly.
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/trainer.h"
#include "src/sim/fleet.h"
#include "src/trace/azure_generator.h"

namespace femux {
namespace {

Dataset TinyDataset() {
  AzureGeneratorOptions options;
  options.num_apps = 8;
  options.duration_days = 2;
  options.seed = 13;
  return GenerateAzureDataset(options);
}

TrainerOptions FastOptions() {
  TrainerOptions options;
  options.clusters = 3;
  options.refit_interval = 30;
  return options;
}

std::vector<int> AllApps(const Dataset& dataset) {
  std::vector<int> indices;
  for (int i = 0; i < static_cast<int>(dataset.apps.size()); ++i) {
    indices.push_back(i);
  }
  return indices;
}

void ExpectTablesEqual(const BlockTable& a, const BlockTable& b) {
  ASSERT_EQ(a.rum.size(), b.rum.size());
  ASSERT_EQ(a.features.size(), b.features.size());
  for (std::size_t i = 0; i < a.rum.size(); ++i) {
    EXPECT_EQ(a.rum[i], b.rum[i]) << "rum rows for app " << i;
    EXPECT_EQ(a.features[i], b.features[i]) << "feature rows for app " << i;
  }
}

TEST(TrainerParityTest, WorkspaceExtractionMatchesAllocatingExtraction) {
  const Dataset dataset = TinyDataset();
  const FeatureExtractor extractor(DefaultFeatureSet());
  FeatureExtractor::Workspace workspace;
  for (const AppTrace& app : dataset.apps) {
    const std::vector<double> demand = DemandSeries(app, 60.0);
    const std::size_t blocks = BlockCount(demand.size(), kDefaultBlockMinutes);
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto block =
          BlockSlice(std::span<const double>(demand), b, kDefaultBlockMinutes);
      const std::vector<double> fresh = extractor.Extract(block, 12.0);
      extractor.ExtractInto(block, 12.0, &workspace);
      EXPECT_EQ(fresh, workspace.out);
    }
  }
}

// Every block-table RUM is the block replay of a SimulateForecasts plan:
// the trainer slices one rolling plan per (app, forecaster) and only
// rescales it per margin.
TEST(TrainerParityTest, BlockRumsReplaySimulateForecastsPlans) {
  const Dataset dataset = TinyDataset();
  const AppTrace& app = dataset.apps[0];
  TrainerOptions options = FastOptions();
  options.forecaster_names = {"ar", "fft", "holt", "markov_chain"};
  options.margins = {1.0, 1.25};
  const BlockTable table =
      BuildBlockTable(dataset, {0}, Rum::Default(), options, nullptr);

  const std::vector<double> demand = DemandSeries(app, 60.0);
  const std::vector<double> arrivals = ArrivalSeries(app, 60.0);
  const auto plans = SimulateForecasts(options.forecaster_names, demand, 30);
  SimOptions sim = options.sim;
  sim.min_scale = 0;
  if (app.consumed_memory_mb > 0.0) {
    sim.memory_gb_per_unit = app.consumed_memory_mb / 1024.0;
  }

  const std::size_t blocks = BlockCount(demand.size(), options.block_minutes);
  ASSERT_EQ(table.rum.size(), 1u);
  ASSERT_EQ(table.rum[0].size(), blocks);
  ASSERT_GT(blocks, 0u);
  std::vector<double> scaled(options.block_minutes);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto demand_block =
        BlockSlice(std::span<const double>(demand), b, options.block_minutes);
    const auto arrivals_block =
        BlockSlice(std::span<const double>(arrivals), b, options.block_minutes);
    for (std::size_t f = 0; f < plans.size(); ++f) {
      const auto plan_block =
          BlockSlice(std::span<const double>(plans[f]), b, options.block_minutes);
      for (std::size_t m = 0; m < options.margins.size(); ++m) {
        for (std::size_t i = 0; i < plan_block.size(); ++i) {
          scaled[i] = plan_block[i] * options.margins[m];
        }
        const double expected =
            BlockRum(Rum::Default(), demand_block, arrivals_block, scaled, sim);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      table.rum[0][b][f * options.margins.size() + m]),
                  std::bit_cast<std::uint64_t>(expected))
            << options.forecaster_names[f] << " block " << b << " margin " << m;
      }
    }
  }
}

TEST(TrainerParityTest, TrainingIsDeterministicUnderFemuxThreads1) {
  const Dataset dataset = TinyDataset();
  const std::vector<int> apps = AllApps(dataset);
  setenv("FEMUX_THREADS", "1", 1);
  const BlockTable serial =
      BuildBlockTable(dataset, apps, Rum::Default(), FastOptions(), nullptr);
  unsetenv("FEMUX_THREADS");
  const BlockTable parallel =
      BuildBlockTable(dataset, apps, Rum::Default(), FastOptions(), nullptr);
  ExpectTablesEqual(serial, parallel);
}

}  // namespace
}  // namespace femux
