// Streaming fleet-simulation parity tests (DESIGN.md §11).
//
// SimulateFleetStream's contract: for any thread count and any chunk size,
// the folded total (and the rows observed through per_app_sink) are
// bit-identical to SimulateFleet over the materialized dataset.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/forecast/registry.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_stream.h"
#include "src/sim/policy.h"
#include "src/trace/azure_generator.h"
#include "src/trace/huawei_generator.h"
#include "src/trace/stream.h"

namespace femux {
namespace {

// Pin the pool so "parallel" runs really use workers on single-core CI.
const bool kEnvReady = [] {
  setenv("FEMUX_THREADS", "4", 0);
  return true;
}();

constexpr std::size_t kMetricFields = 8;

std::array<double, kMetricFields> Fields(const SimMetrics& m) {
  return {m.invocations,        m.cold_starts,          m.cold_invocations,
          m.cold_start_seconds, m.wasted_gb_seconds,    m.allocated_gb_seconds,
          m.execution_seconds,  m.service_seconds};
}

void ExpectBitIdentical(const SimMetrics& a, const SimMetrics& b,
                        const std::string& label) {
  const auto fa = Fields(a);
  const auto fb = Fields(b);
  for (std::size_t f = 0; f < kMetricFields; ++f) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fa[f]),
              std::bit_cast<std::uint64_t>(fb[f]))
        << label << " field " << f << ": " << fa[f] << " vs " << fb[f];
  }
}

Dataset TestDataset() {
  AzureGeneratorOptions options;
  options.num_apps = 14;
  options.duration_days = 1;
  options.seed = 31;
  return GenerateAzureDataset(options);
}

TEST(FleetStreamTest, MatchesResidentPathAcrossChunksAndThreads) {
  ASSERT_TRUE(kEnvReady);
  const Dataset dataset = TestDataset();
  const DatasetTraceSource source(dataset);
  const ForecasterPolicy prototype(MakeForecasterByName("exp_smoothing"));
  const FleetResult resident =
      SimulateFleetUniform(dataset, prototype, SimOptions{},
                           /*respect_app_min_scale=*/false, /*threads=*/1);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{0}, std::size_t{3}}) {
      SCOPED_TRACE("chunk=" + std::to_string(chunk) +
                   " threads=" + std::to_string(threads));
      FleetStreamOptions options;
      options.chunk_apps = chunk;
      options.threads = threads;
      std::vector<SimMetrics> rows(dataset.apps.size());
      std::vector<bool> seen(dataset.apps.size(), false);
      std::size_t sink_calls = 0;
      std::size_t last_index = 0;
      options.per_app_sink = [&](std::size_t index, const SimMetrics& row) {
        ASSERT_LT(index, rows.size());
        // Strict app-index order: the ordered fold must deliver rows in
        // exactly the sequence the resident reduction visits them.
        if (sink_calls > 0) {
          EXPECT_EQ(index, last_index + 1);
        } else {
          EXPECT_EQ(index, 0u);
        }
        last_index = index;
        ++sink_calls;
        seen[index] = true;
        rows[index] = row;
      };
      const FleetStreamResult streamed =
          SimulateFleetStreamUniform(source, prototype, options);
      EXPECT_EQ(streamed.apps, dataset.apps.size());
      EXPECT_EQ(sink_calls, dataset.apps.size());
      EXPECT_EQ(streamed.chunks, (dataset.apps.size() + chunk - 1) / chunk);
      ExpectBitIdentical(resident.total, streamed.total, "total");
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_TRUE(seen[i]) << "sink skipped app " << i;
        ExpectBitIdentical(resident.per_app[i], rows[i],
                           "app " + std::to_string(i));
      }
    }
  }
}

TEST(FleetStreamTest, LazySourceMatchesMaterializedEndToEnd) {
  AzureGeneratorOptions gen;
  gen.num_apps = 10;
  gen.duration_days = 1;
  gen.seed = 62;
  const AzureTraceSource source(gen);
  const Dataset dataset = GenerateAzureDataset(gen);
  const ForecasterPolicy prototype(MakeForecasterByName("moving_average_1"));
  const FleetResult resident =
      SimulateFleetUniform(dataset, prototype, SimOptions{},
                           /*respect_app_min_scale=*/false, /*threads=*/1);
  FleetStreamOptions options;
  options.chunk_apps = 3;
  const FleetStreamResult streamed =
      SimulateFleetStreamUniform(source, prototype, options);
  ExpectBitIdentical(resident.total, streamed.total, "lazy total");
}

TEST(FleetStreamTest, EpochCountMatchesSeriesLengths) {
  const Dataset dataset = TestDataset();
  const DatasetTraceSource source(dataset);
  const ForecasterPolicy prototype(MakeForecasterByName("moving_average_1"));
  std::uint64_t expected = 0;
  for (const AppTrace& app : dataset.apps) {
    expected += DemandSeries(app, 60.0).size();
  }
  const FleetStreamResult streamed =
      SimulateFleetStreamUniform(source, prototype, FleetStreamOptions{});
  EXPECT_EQ(streamed.epochs, expected);
}

TEST(FleetStreamTest, HuaweiSweepSmallScaleRunsUnderBudget) {
  // End-to-end miniature of bench_fleet_scale's sweep: per-second traces,
  // 10 s epochs — totals must be reproducible across passes.
  HuaweiGeneratorOptions options;
  options.num_apps = 30;
  options.duration_minutes = 5;
  options.seed = 9;
  const HuaweiTraceSource source(options);
  const ForecasterPolicy prototype(MakeForecasterByName("moving_average_1"));
  FleetStreamOptions stream;
  stream.sim.epoch_seconds = 10.0;
  const FleetStreamResult a = SimulateFleetStreamUniform(source, prototype, stream);
  const FleetStreamResult b = SimulateFleetStreamUniform(source, prototype, stream);
  EXPECT_EQ(a.apps, 30u);
  EXPECT_GT(a.epochs, 0u);
  ExpectBitIdentical(a.total, b.total, "huawei rerun");
}

TEST(FleetStreamTest, BoundedBackpressureBitIdenticalAndCapped) {
  // Tight pending bounds must change ONLY the admission schedule, never the
  // result: the fold is strictly chunk-index-ordered, so any
  // max_pending_chunks yields bits identical to the unbounded run — and the
  // recorded peak must respect the bound.
  ASSERT_TRUE(kEnvReady);
  const Dataset dataset = TestDataset();
  const DatasetTraceSource source(dataset);
  const ForecasterPolicy prototype(MakeForecasterByName("exp_smoothing"));

  FleetStreamOptions base;
  base.chunk_apps = 2;  // 14 apps -> 7 chunks, enough to reorder.
  base.threads = 0;     // FEMUX_THREADS=4 via kEnvReady.
  const FleetStreamResult unbounded =
      SimulateFleetStreamUniform(source, prototype, base);

  for (const std::size_t bound : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("bound=" + std::to_string(bound));
    FleetStreamOptions options = base;
    options.max_pending_chunks = bound;
    const FleetStreamResult bounded =
        SimulateFleetStreamUniform(source, prototype, options);
    EXPECT_EQ(bounded.apps, unbounded.apps);
    EXPECT_EQ(bounded.chunks, unbounded.chunks);
    ExpectBitIdentical(unbounded.total, bounded.total, "bounded total");
    EXPECT_LE(bounded.peak_pending_chunks, bound);
    EXPECT_GE(bounded.peak_pending_chunks, 1u);  // Some chunk completed.
  }
}

}  // namespace
}  // namespace femux
