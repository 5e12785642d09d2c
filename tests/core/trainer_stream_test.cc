// Streaming trainer parity (DESIGN.md §11): TrainFemuxStream folds block
// rows chunk by chunk in app-index order, so with an uncapped row budget
// the fitted model must be bit-identical to TrainFemux over the
// materialized dataset, for any chunk size and thread count. With a row
// cap, the stride-doubling decimation depends only on a row's global
// index, so the capped fit is deterministic across chunking/threading too.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/serialize.h"
#include "src/core/trainer.h"
#include "src/trace/azure_generator.h"
#include "src/trace/stream.h"

namespace femux {
namespace {

AzureGeneratorOptions SmallFleet() {
  AzureGeneratorOptions options;
  options.num_apps = 8;
  options.duration_days = 2;
  options.seed = 23;
  return options;
}

TrainerOptions CompactTrainer() {
  TrainerOptions options;
  options.block_minutes = 240;
  options.clusters = 4;
  options.forecaster_names = {"ar", "exp_smoothing", "holt"};
  options.margins = {1.0, 1.25};
  return options;
}

// Models are compared through their serialized form: byte-identical files
// means every fitted parameter (scaler, centroids, cluster tables,
// defaults) is bit-identical.
std::string ModelBytes(const FemuxModel& model, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/stream_" + tag + ".model";
  if (!SaveModelFile(model, path)) {
    ADD_FAILURE() << "could not save " << path;
    return tag;  // Distinct per call, so comparisons fail loudly.
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(TrainerStreamTest, UncappedStreamIsBitIdenticalToBatchTrainer) {
  const AzureGeneratorOptions gen = SmallFleet();
  const AzureTraceSource source(gen);
  const Dataset dataset = GenerateAzureDataset(gen);
  const TrainerOptions trainer = CompactTrainer();

  std::vector<int> all_apps;
  for (std::size_t i = 0; i < dataset.apps.size(); ++i) {
    all_apps.push_back(static_cast<int>(i));
  }
  const TrainResult batch = TrainFemux(dataset, all_apps, Rum::Default(), trainer);
  const std::string batch_bytes = ModelBytes(batch.model, "batch");

  std::size_t expected_blocks = 0;
  for (const auto& app_rows : batch.table.rum) {
    expected_blocks += app_rows.size();
  }

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    StreamTrainOptions stream;
    stream.chunk_apps = chunk;
    const StreamTrainResult streamed =
        TrainFemuxStream(source, Rum::Default(), trainer, stream);
    EXPECT_EQ(streamed.apps, dataset.apps.size());
    EXPECT_EQ(streamed.blocks_seen, expected_blocks);
    EXPECT_EQ(streamed.rows_kept, expected_blocks);
    EXPECT_EQ(streamed.row_stride, 1u);
    EXPECT_EQ(ModelBytes(streamed.model, "stream_c" + std::to_string(chunk)),
              batch_bytes);
    EXPECT_EQ(streamed.cluster_sizes, batch.cluster_sizes);
  }
}

// Both entry points run one trainer, learned-state post-pass included: with
// a learned-only candidate set every non-empty cluster carries a trained
// blob, and the saved models must agree byte for byte.
TEST(TrainerStreamTest, LearnedModelIsIdenticalFromBothEntryPoints) {
  AzureGeneratorOptions gen;
  gen.num_apps = 12;
  gen.duration_days = 2;
  const Dataset dataset = GenerateAzureDataset(gen);
  TrainerOptions trainer;
  trainer.clusters = 3;
  trainer.refit_interval = 30;
  trainer.forecaster_names = {"linear_state"};

  std::vector<int> all_apps;
  for (std::size_t i = 0; i < dataset.apps.size(); ++i) {
    all_apps.push_back(static_cast<int>(i));
  }
  const TrainResult batch = TrainFemux(dataset, all_apps, Rum::Default(), trainer);
  const StreamTrainResult streamed =
      TrainFemuxStream(AzureTraceSource(gen), Rum::Default(), trainer);

  std::size_t blobs = 0;
  for (const std::string& blob : streamed.model.cluster_learned_state) {
    blobs += blob.empty() ? 0 : 1;
  }
  EXPECT_GT(blobs, 0u);
  EXPECT_EQ(streamed.model.cluster_learned_state, batch.model.cluster_learned_state);
  EXPECT_EQ(ModelBytes(streamed.model, "learned_stream"),
            ModelBytes(batch.model, "learned_batch"));
}

TEST(TrainerStreamTest, CappedDecimationIsDeterministicAcrossChunking) {
  const AzureGeneratorOptions gen = SmallFleet();
  const AzureTraceSource source(gen);
  TrainerOptions trainer = CompactTrainer();

  StreamTrainOptions narrow;
  narrow.chunk_apps = 1;
  narrow.max_rows = 16;
  TrainerOptions serial_trainer = trainer;
  serial_trainer.threads = 1;
  const StreamTrainResult a =
      TrainFemuxStream(source, Rum::Default(), serial_trainer, narrow);

  StreamTrainOptions wide;
  wide.chunk_apps = 5;
  wide.max_rows = 16;
  const StreamTrainResult b =
      TrainFemuxStream(source, Rum::Default(), trainer, wide);

  EXPECT_EQ(a.rows_kept, b.rows_kept);
  EXPECT_EQ(a.row_stride, b.row_stride);
  EXPECT_EQ(ModelBytes(a.model, "cap_a"), ModelBytes(b.model, "cap_b"));

  // The cap really bound the retained set, via a power-of-two stride.
  EXPECT_LE(a.rows_kept, 16u);
  EXPECT_GT(a.row_stride, 1u);
  EXPECT_EQ(a.row_stride & (a.row_stride - 1), 0u);
  EXPECT_GT(a.blocks_seen, a.rows_kept);
}

}  // namespace
}  // namespace femux
