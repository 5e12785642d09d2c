// Streaming trace generation parity (DESIGN.md §11): every generator's
// MakeApp(index) must be bit-identical to entry `index` of the
// materializing Generate*Dataset call — the property that makes lazy
// chunked consumption (SimulateFleetStream, TrainFemuxStream) equivalent
// to running the same fold over the materialized dataset.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/azure_generator.h"
#include "src/trace/huawei_generator.h"
#include "src/trace/ibm_generator.h"
#include "src/trace/stream.h"

namespace femux {
namespace {

void ExpectAppsBitIdentical(const AppTrace& a, const AppTrace& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.seconds_per_sample, b.seconds_per_sample);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_execution_ms),
            std::bit_cast<std::uint64_t>(b.mean_execution_ms));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.execution_sigma),
            std::bit_cast<std::uint64_t>(b.execution_sigma));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.consumed_memory_mb),
            std::bit_cast<std::uint64_t>(b.consumed_memory_mb));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.config.cpu_vcpu),
            std::bit_cast<std::uint64_t>(b.config.cpu_vcpu));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.config.memory_gb),
            std::bit_cast<std::uint64_t>(b.config.memory_gb));
  EXPECT_EQ(a.config.container_concurrency, b.config.container_concurrency);
  EXPECT_EQ(a.config.min_scale, b.config.min_scale);
  EXPECT_EQ(a.config.image, b.config.image);
  EXPECT_EQ(a.config.workload, b.config.workload);
  ASSERT_EQ(a.minute_counts.size(), b.minute_counts.size());
  for (std::size_t m = 0; m < a.minute_counts.size(); ++m) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.minute_counts[m]),
              std::bit_cast<std::uint64_t>(b.minute_counts[m]))
        << a.id << " sample " << m;
  }
  ASSERT_EQ(a.invocations.size(), b.invocations.size());
  for (std::size_t i = 0; i < a.invocations.size(); ++i) {
    EXPECT_EQ(a.invocations[i].arrival_ms, b.invocations[i].arrival_ms);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.invocations[i].execution_ms),
              std::bit_cast<std::uint64_t>(b.invocations[i].execution_ms));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.invocations[i].platform_delay_ms),
              std::bit_cast<std::uint64_t>(b.invocations[i].platform_delay_ms));
    EXPECT_EQ(a.invocations[i].cold, b.invocations[i].cold);
  }
}

void ExpectSourceMatchesDataset(const TraceSource& source,
                                const Dataset& dataset) {
  ASSERT_EQ(source.app_count(), dataset.apps.size());
  EXPECT_EQ(source.name(), dataset.name);
  EXPECT_EQ(source.duration_days(), dataset.duration_days);
  for (std::size_t i = 0; i < dataset.apps.size(); ++i) {
    SCOPED_TRACE("app " + std::to_string(i));
    ExpectAppsBitIdentical(source.MakeApp(i), dataset.apps[i]);
  }
}

TEST(TraceStreamTest, AzureLazyMatchesMaterialized) {
  AzureGeneratorOptions options;
  options.num_apps = 24;
  options.duration_days = 2;
  options.seed = 91;
  ExpectSourceMatchesDataset(AzureTraceSource(options),
                             GenerateAzureDataset(options));
}

TEST(TraceStreamTest, IbmLazyMatchesMaterializedIncludingShowcaseApps) {
  IbmGeneratorOptions options;
  options.num_apps = 16;  // Apps 0 and 1 are the showcase daily-trend /
                          // new-year traces — their dedicated RNG streams
                          // must survive the per-app factoring too.
  options.duration_days = 3;
  options.seed = 4;
  ExpectSourceMatchesDataset(IbmTraceSource(options),
                             GenerateIbmDataset(options));
}

TEST(TraceStreamTest, HuaweiLazyMatchesMaterialized) {
  HuaweiGeneratorOptions options;
  options.num_apps = 40;
  options.duration_minutes = 15;
  options.seed = 12;
  ExpectSourceMatchesDataset(HuaweiTraceSource(options),
                             GenerateHuaweiDataset(options));
}

TEST(TraceStreamTest, MakeAppIsPure) {
  // Same index twice -> bit-identical trace (the thread-safety contract
  // rests on this: no hidden generator state advances between calls).
  AzureGeneratorOptions azure;
  azure.num_apps = 8;
  azure.duration_days = 1;
  azure.seed = 3;
  const AzureTraceSource source(azure);
  for (std::size_t i : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    SCOPED_TRACE("app " + std::to_string(i));
    ExpectAppsBitIdentical(source.MakeApp(i), source.MakeApp(i));
  }
}

TEST(TraceStreamTest, HuaweiPresetShape) {
  HuaweiGeneratorOptions options;
  options.num_apps = 200;
  options.duration_minutes = 20;
  options.seed = 77;
  const Dataset dataset = GenerateHuaweiDataset(options);
  ASSERT_EQ(dataset.apps.size(), 200u);

  double max_total = 0.0;
  std::vector<double> totals;
  std::size_t sub_minute_active = 0;
  for (const AppTrace& app : dataset.apps) {
    // Per-second resolution over the full duration.
    EXPECT_EQ(app.seconds_per_sample, 1);
    ASSERT_EQ(app.minute_counts.size(),
              static_cast<std::size_t>(options.duration_minutes) * 60u);
    EXPECT_GT(app.mean_execution_ms, 0.0);
    EXPECT_GT(app.consumed_memory_mb, 0.0);
    double total = 0.0;
    for (double c : app.minute_counts) {
      ASSERT_GE(c, 0.0);
      total += c;
    }
    totals.push_back(total);
    max_total = std::max(max_total, total);
    // Sub-minute structure: an app whose busiest second within a minute is
    // far above its per-minute average has intra-minute burst structure a
    // minute grid would flatten.
    if (total > 0.0) {
      double peak_second = 0.0;
      for (double c : app.minute_counts) {
        peak_second = std::max(peak_second, c);
      }
      const double per_second_mean = total / static_cast<double>(app.minute_counts.size());
      if (peak_second > 5.0 * per_second_mean && peak_second >= 1.0) {
        ++sub_minute_active;
      }
    }
  }
  // Extreme popularity skew (Pareto alpha ~= 1.05): the single hottest app
  // must dominate — it alone carries a large share of fleet invocations.
  double fleet_total = 0.0;
  for (double t : totals) {
    fleet_total += t;
  }
  ASSERT_GT(fleet_total, 0.0);
  EXPECT_GT(max_total / fleet_total, 0.05)
      << "hottest app carries too small a share for a heavy-tailed fleet";
  // Strong sub-minute periodicity: most apps should show intra-minute
  // burst structure (calibration target ~70%; assert a safe floor).
  EXPECT_GT(sub_minute_active, dataset.apps.size() / 2);
}

TEST(TraceStreamTest, DatasetSourceRoundTrips) {
  AzureGeneratorOptions options;
  options.num_apps = 6;
  options.duration_days = 1;
  options.seed = 15;
  const Dataset dataset = GenerateAzureDataset(options);
  const DatasetTraceSource source(dataset);
  ExpectSourceMatchesDataset(source, dataset);
  const Dataset copy = source.Materialize();
  ASSERT_EQ(copy.apps.size(), dataset.apps.size());
  EXPECT_EQ(copy.name, dataset.name);
  EXPECT_EQ(copy.duration_days, dataset.duration_days);
}

}  // namespace
}  // namespace femux
