// Golden-metric regression harness for the parallel fleet path (ISSUE 5,
// DESIGN.md §10).
//
// A small synthetic Azure-style dataset snapshot is committed under
// tests/data/ together with a golden file of fig11/fig17-style fleet
// metrics (every SimMetrics field of every per-app row and the total, for
// a sweep of baseline/forecaster/FeMux policies), formatted as %a hex
// floats so the comparison is bit-exact. The tests assert that
//  (a) the fleet simulation is bit-identical across thread counts
//      (serial inline vs pooled), and
//  (b) today's serial metrics are bit-identical to the committed golden —
//      the serial-to-parallel jump is exactly where silent nondeterminism
//      creeps in, and this pins both directions.
//
// Regenerate the snapshot + golden after an intentional behaviour change:
//   FEMUX_UPDATE_GOLDEN=1 build/tests/sim_fleet_determinism_test
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/baselines.h"
#include "src/core/femux.h"
#include "src/core/trainer.h"
#include "src/forecast/registry.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_stream.h"
#include "src/trace/azure_generator.h"
#include "src/trace/csv_io.h"
#include "src/trace/stream.h"

namespace femux {
namespace {

// The pool is sized at first touch; pin it so the "parallel" runs really
// use workers even on a single-core CI machine.
const bool kEnvReady = [] {
  setenv("FEMUX_THREADS", "4", 0);  // Keep an explicit override if present.
  return true;
}();

const std::string kDataDir = FEMUX_TEST_DATA_DIR;
const std::string kConfigsCsv = kDataDir + "/fleet_golden_configs.csv";
const std::string kCountsCsv = kDataDir + "/fleet_golden_counts.csv";
const std::string kGoldenFile = kDataDir + "/fleet_golden_metrics.txt";

constexpr std::size_t kMetricFields = 8;
constexpr std::array<const char*, kMetricFields> kFieldNames = {
    "invocations",         "cold_starts",        "cold_invocations",
    "cold_start_seconds",  "wasted_gb_seconds",  "allocated_gb_seconds",
    "execution_seconds",   "service_seconds"};

std::array<double, kMetricFields> Fields(const SimMetrics& m) {
  return {m.invocations,        m.cold_starts,          m.cold_invocations,
          m.cold_start_seconds, m.wasted_gb_seconds,    m.allocated_gb_seconds,
          m.execution_seconds,  m.service_seconds};
}

// The committed snapshot's generator configuration (only used when
// regenerating; the tests themselves read the CSV snapshot so that
// generator drift cannot silently move the golden).
Dataset GenerateSnapshotDataset() {
  AzureGeneratorOptions options;
  options.num_apps = 8;
  options.duration_days = 2;
  options.seed = 23;
  return GenerateAzureDataset(options);
}

Dataset LoadSnapshotDataset() {
  return ReadDatasetCsvFiles(kConfigsCsv, kCountsCsv);
}

// FeMux trained on the snapshot itself with a compact configuration — the
// training pipeline (rolling plans, block RUMs, parallel feature rows,
// K-means) is deterministic given the dataset and seed, so the trained
// policy is part of the golden contract.
std::shared_ptr<const FemuxModel> TrainSnapshotModel(const Dataset& dataset) {
  TrainerOptions options;
  options.block_minutes = 240;
  options.clusters = 4;
  options.forecaster_names = {"ar", "exp_smoothing", "holt", "fft"};
  options.margins = {1.0, 1.25};
  std::vector<int> all_apps;
  for (std::size_t i = 0; i < dataset.apps.size(); ++i) {
    all_apps.push_back(static_cast<int>(i));
  }
  const TrainResult trained =
      TrainFemux(dataset, all_apps, Rum::Default(), options);
  return std::make_shared<const FemuxModel>(trained.model);
}

struct Sweep {
  std::string label;
  std::unique_ptr<ScalingPolicy> prototype;
};

// Fig11/fig17-flavored policy sweep: fixed keep-alive and reactive
// baselines, individual forecaster policies, and multiplexed FeMux.
std::vector<Sweep> MakeSweeps(const Dataset& dataset) {
  std::vector<Sweep> sweeps;
  sweeps.push_back({"keep_alive_10", MakeKeepAlivePolicy(10)});
  sweeps.push_back({"knative_default", MakeKnativeDefaultPolicy()});
  sweeps.push_back({"policy_ar", std::make_unique<ForecasterPolicy>(
                                     MakeForecasterByName("ar"))});
  sweeps.push_back({"policy_fft", std::make_unique<ForecasterPolicy>(
                                      MakeForecasterByName("fft"))});
  sweeps.push_back({"femux", std::make_unique<FemuxPolicy>(
                                 TrainSnapshotModel(dataset))});
  return sweeps;
}

std::string RowKey(const std::string& sweep, int app_index) {
  return app_index < 0 ? sweep + " total"
                       : sweep + " app" + std::to_string(app_index);
}

void AppendRows(const std::string& sweep, const FleetResult& result,
                std::map<std::string, std::array<double, kMetricFields>>* rows) {
  (*rows)[RowKey(sweep, -1)] = Fields(result.total);
  for (std::size_t i = 0; i < result.per_app.size(); ++i) {
    (*rows)[RowKey(sweep, static_cast<int>(i))] = Fields(result.per_app[i]);
  }
}

void ExpectBitIdentical(const SimMetrics& a, const SimMetrics& b,
                        const std::string& label) {
  const auto fa = Fields(a);
  const auto fb = Fields(b);
  for (std::size_t f = 0; f < kMetricFields; ++f) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fa[f]), std::bit_cast<std::uint64_t>(fb[f]))
        << label << " " << kFieldNames[f] << ": " << fa[f] << " vs " << fb[f];
  }
}

bool UpdateGoldenRequested() {
  const char* env = std::getenv("FEMUX_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

std::map<std::string, std::array<double, kMetricFields>> ReadGolden() {
  std::map<std::string, std::array<double, kMetricFields>> rows;
  std::ifstream in(kGoldenFile);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string sweep, row;
    fields >> sweep >> row;
    std::array<double, kMetricFields> values{};
    bool ok = !sweep.empty() && !row.empty();
    for (std::size_t f = 0; ok && f < kMetricFields; ++f) {
      std::string token;
      if (!(fields >> token)) {
        ok = false;
        break;
      }
      values[f] = std::strtod(token.c_str(), nullptr);  // %a round-trips.
    }
    if (ok) {
      rows[sweep + " " + row] = values;
    }
  }
  return rows;
}

TEST(FleetDeterminismTest, UpdateGolden) {
  ASSERT_TRUE(kEnvReady);
  if (!UpdateGoldenRequested()) {
    GTEST_SKIP() << "set FEMUX_UPDATE_GOLDEN=1 to regenerate the snapshot";
  }
  const Dataset dataset = GenerateSnapshotDataset();
  ASSERT_TRUE(WriteDatasetCsvFiles(dataset, kConfigsCsv, kCountsCsv));

  std::map<std::string, std::array<double, kMetricFields>> rows;
  for (const Sweep& sweep : MakeSweeps(dataset)) {
    AppendRows(sweep.label,
               SimulateFleetUniform(dataset, *sweep.prototype, SimOptions{},
                                    /*respect_app_min_scale=*/false, /*threads=*/1),
               &rows);
  }
  std::ofstream out(kGoldenFile);
  out << "# Golden fleet metrics for the committed snapshot dataset.\n"
      << "# <sweep> <row> then one %a hex float per SimMetrics field:\n"
      << "#";
  for (const char* name : kFieldNames) {
    out << " " << name;
  }
  out << "\n# Regenerate: FEMUX_UPDATE_GOLDEN=1 sim_fleet_determinism_test\n";
  char buffer[64];
  for (const auto& [key, values] : rows) {
    out << key;
    for (double v : values) {
      std::snprintf(buffer, sizeof(buffer), " %a", v);
      out << buffer;
    }
    out << "\n";
  }
  ASSERT_TRUE(out.good());
}

TEST(FleetDeterminismTest, SnapshotLoads) {
  const Dataset dataset = LoadSnapshotDataset();
  ASSERT_EQ(dataset.apps.size(), 8u);
  EXPECT_EQ(dataset.duration_days, 2);
  for (const AppTrace& app : dataset.apps) {
    EXPECT_EQ(app.minute_counts.size(), 2u * kMinutesPerDay);
  }
}

// (a) Any thread count produces bit-identical per-app rows and totals.
TEST(FleetDeterminismTest, FleetMetricsBitIdenticalAcrossThreadCounts) {
  const Dataset dataset = LoadSnapshotDataset();
  ASSERT_FALSE(dataset.apps.empty());
  for (const Sweep& sweep : MakeSweeps(dataset)) {
    const FleetResult serial =
        SimulateFleetUniform(dataset, *sweep.prototype, SimOptions{},
                             /*respect_app_min_scale=*/false, /*threads=*/1);
    for (const std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
      const FleetResult parallel =
          SimulateFleetUniform(dataset, *sweep.prototype, SimOptions{},
                               /*respect_app_min_scale=*/false, threads);
      ASSERT_EQ(serial.per_app.size(), parallel.per_app.size());
      ExpectBitIdentical(serial.total, parallel.total,
                         sweep.label + " total (threads=" +
                             std::to_string(threads) + ")");
      for (std::size_t i = 0; i < serial.per_app.size(); ++i) {
        ExpectBitIdentical(serial.per_app[i], parallel.per_app[i],
                           RowKey(sweep.label, static_cast<int>(i)));
      }
    }
  }
}

// (b) The serial path reproduces the committed golden bit-for-bit.
TEST(FleetDeterminismTest, FleetMetricsMatchCommittedGolden) {
  const Dataset dataset = LoadSnapshotDataset();
  ASSERT_FALSE(dataset.apps.empty());
  const auto golden = ReadGolden();
  ASSERT_FALSE(golden.empty()) << "missing or unreadable " << kGoldenFile;
  std::map<std::string, std::array<double, kMetricFields>> rows;
  for (const Sweep& sweep : MakeSweeps(dataset)) {
    AppendRows(sweep.label,
               SimulateFleetUniform(dataset, *sweep.prototype, SimOptions{},
                                    /*respect_app_min_scale=*/false, /*threads=*/1),
               &rows);
  }
  ASSERT_EQ(rows.size(), golden.size());
  for (const auto& [key, values] : rows) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "golden row missing: " << key;
    for (std::size_t f = 0; f < kMetricFields; ++f) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(values[f]),
                std::bit_cast<std::uint64_t>(it->second[f]))
          << key << " " << kFieldNames[f] << ": measured " << values[f]
          << " vs golden " << it->second[f];
    }
  }
}

// (c) The streaming fleet path (SimulateFleetStream, DESIGN.md §11) folds
// chunk results in strict app-index order, so its total — and every row
// observed through the ordered per_app_sink — is bit-identical to the
// serial resident path (and hence to the committed golden) for any thread
// count, chunk size, and backpressure bound (the bound only throttles
// admission past the fold frontier; it must never reorder the fold).
TEST(FleetDeterminismTest, StreamingMatchesResidentForAnyChunkingAndThreads) {
  const Dataset dataset = LoadSnapshotDataset();
  ASSERT_FALSE(dataset.apps.empty());
  const DatasetTraceSource source(dataset);
  for (const Sweep& sweep : MakeSweeps(dataset)) {
    const FleetResult serial =
        SimulateFleetUniform(dataset, *sweep.prototype, SimOptions{},
                             /*respect_app_min_scale=*/false, /*threads=*/1);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{0}, std::size_t{3}}) {
        // 0 = auto bound; 1 = the tightest admission schedule possible.
        for (const std::size_t pending : {std::size_t{0}, std::size_t{1}}) {
          FleetStreamOptions options;
          options.chunk_apps = chunk;
          options.threads = threads;
          options.max_pending_chunks = pending;
          std::vector<SimMetrics> rows(dataset.apps.size());
          options.per_app_sink = [&rows](std::size_t index, const SimMetrics& row) {
            ASSERT_LT(index, rows.size());
            rows[index] = row;
          };
          const FleetStreamResult streamed =
              SimulateFleetStreamUniform(source, *sweep.prototype, options);
          const std::string label = sweep.label + " (chunk=" + std::to_string(chunk) +
                                    " threads=" + std::to_string(threads) +
                                    " pending=" + std::to_string(pending) + ")";
          ASSERT_EQ(streamed.apps, serial.per_app.size()) << label;
          if (pending > 0) {
            EXPECT_LE(streamed.peak_pending_chunks, pending) << label;
          }
          ExpectBitIdentical(serial.total, streamed.total, label + " total");
          for (std::size_t i = 0; i < rows.size(); ++i) {
            ExpectBitIdentical(serial.per_app[i], rows[i],
                               RowKey(sweep.label, static_cast<int>(i)) + " streamed");
          }
        }
      }
    }
  }
}

// The training pipeline behind the FeMux sweep is itself thread-count
// invariant: per-block RUM rows and feature rows (the app-level ordered
// fold plus the nested block-level ParallelFor) are bit-identical serial
// vs pooled.
TEST(FleetDeterminismTest, BlockTableBitIdenticalAcrossThreadCounts) {
  const Dataset dataset = LoadSnapshotDataset();
  ASSERT_FALSE(dataset.apps.empty());
  TrainerOptions options;
  options.block_minutes = 240;
  options.forecaster_names = {"ar", "holt", "fft"};
  options.margins = {1.0, 1.25};
  std::vector<int> apps;
  for (std::size_t i = 0; i < dataset.apps.size(); ++i) {
    apps.push_back(static_cast<int>(i));
  }

  TrainerOptions serial_options = options;
  serial_options.threads = 1;
  const BlockTable serial =
      BuildBlockTable(dataset, apps, Rum::Default(), serial_options, nullptr);
  const BlockTable parallel =
      BuildBlockTable(dataset, apps, Rum::Default(), options, nullptr);

  ASSERT_EQ(serial.rum.size(), parallel.rum.size());
  ASSERT_EQ(serial.features.size(), parallel.features.size());
  for (std::size_t a = 0; a < serial.rum.size(); ++a) {
    ASSERT_EQ(serial.rum[a].size(), parallel.rum[a].size());
    for (std::size_t b = 0; b < serial.rum[a].size(); ++b) {
      ASSERT_EQ(serial.rum[a][b].size(), parallel.rum[a][b].size());
      for (std::size_t c = 0; c < serial.rum[a][b].size(); ++c) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.rum[a][b][c]),
                  std::bit_cast<std::uint64_t>(parallel.rum[a][b][c]))
            << "rum app " << a << " block " << b << " candidate " << c;
      }
      ASSERT_EQ(serial.features[a][b].size(), parallel.features[a][b].size());
      for (std::size_t f = 0; f < serial.features[a][b].size(); ++f) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.features[a][b][f]),
                  std::bit_cast<std::uint64_t>(parallel.features[a][b][f]))
            << "feature app " << a << " block " << b << " dim " << f;
      }
    }
  }
}

}  // namespace
}  // namespace femux
