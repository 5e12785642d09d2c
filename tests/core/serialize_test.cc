#include "src/core/serialize.h"

#include <numeric>
#include <sstream>

#include <gtest/gtest.h>

#include "src/trace/azure_generator.h"

namespace femux {
namespace {

TrainResult TrainTiny() {
  AzureGeneratorOptions options;
  options.num_apps = 10;
  options.duration_days = 2;
  const Dataset data = GenerateAzureDataset(options);
  std::vector<int> indices(data.apps.size());
  std::iota(indices.begin(), indices.end(), 0);
  TrainerOptions trainer;
  trainer.clusters = 3;
  trainer.refit_interval = 30;
  return TrainFemux(data, indices, Rum::ColdStartFocused(), trainer);
}

TEST(SerializeTest, ModelRoundTripPreservesDecisions) {
  const TrainResult trained = TrainTiny();
  std::stringstream buffer;
  SaveModel(trained.model, buffer);
  FemuxModel loaded;
  ASSERT_TRUE(LoadModel(buffer, &loaded));

  EXPECT_EQ(loaded.forecaster_names, trained.model.forecaster_names);
  EXPECT_EQ(loaded.refit_interval, trained.model.refit_interval);
  EXPECT_EQ(loaded.block_minutes, trained.model.block_minutes);
  EXPECT_EQ(loaded.default_forecaster, trained.model.default_forecaster);
  EXPECT_EQ(loaded.default_margin, trained.model.default_margin);
  EXPECT_EQ(loaded.margins, trained.model.margins);
  EXPECT_EQ(loaded.cluster_to_forecaster, trained.model.cluster_to_forecaster);
  EXPECT_EQ(loaded.rum.label(), trained.model.rum.label());
  EXPECT_DOUBLE_EQ(loaded.rum.w1(), trained.model.rum.w1());

  // The loaded model must make identical selections.
  for (double seedish : {0.1, 1.0, 5.0, 20.0}) {
    const std::vector<double> features = {seedish, seedish * 0.5, 0.3, 2.0};
    const auto a = trained.model.Select(features);
    const auto b = loaded.Select(features);
    EXPECT_EQ(a.forecaster, b.forecaster);
    EXPECT_DOUBLE_EQ(a.margin, b.margin);
  }
}

TEST(SerializeTest, ModelLearnedSectionRoundTrips) {
  TrainResult trained = TrainTiny();
  // Per-cluster opaque learned blobs, including empty slots (clusters whose
  // winner is closed-form) and content that leans on the token escaping.
  trained.model.cluster_learned_state = {
      "lsv1;16;120;1;0x1.8p+3;0x1p-2;-0x1.4p+1",
      "",
      "blob with spaces\tand 100% escapes",
  };
  std::stringstream buffer;
  SaveModel(trained.model, buffer);
  FemuxModel loaded;
  ASSERT_TRUE(LoadModel(buffer, &loaded));
  EXPECT_EQ(loaded.cluster_learned_state, trained.model.cluster_learned_state);
}

TEST(SerializeTest, ModelWithoutLearnedSectionLoadsCompatibly) {
  // Model files written before the learned section existed end right after
  // the cluster table; they must still load, with no learned state.
  TrainResult trained = TrainTiny();
  trained.model.cluster_learned_state.clear();
  std::stringstream buffer;
  SaveModel(trained.model, buffer);
  // The serialized text must not mention the learned section at all, so the
  // bytes match the pre-extension format.
  EXPECT_EQ(buffer.str().find("learned"), std::string::npos);
  FemuxModel loaded;
  ASSERT_TRUE(LoadModel(buffer, &loaded));
  EXPECT_TRUE(loaded.cluster_learned_state.empty());
}

TEST(SerializeTest, BlockTableRoundTrip) {
  const TrainResult trained = TrainTiny();
  std::stringstream buffer;
  SaveBlockTable(trained.table, buffer);
  BlockTable loaded;
  ASSERT_TRUE(LoadBlockTable(buffer, &loaded));
  ASSERT_EQ(loaded.rum.size(), trained.table.rum.size());
  for (std::size_t a = 0; a < loaded.rum.size(); ++a) {
    EXPECT_EQ(loaded.rum[a], trained.table.rum[a]);
    EXPECT_EQ(loaded.features[a], trained.table.features[a]);
  }
}

// A small hand-built model: two forecasters, two margins, no classifier.
FemuxModel HandBuiltModel() {
  FemuxModel model;
  model.forecaster_names = {"ar", "holt"};
  model.margins = {1.0, 1.25};
  model.default_forecaster = 1;
  model.default_margin = 1;
  return model;
}

bool SavesAndLoads(const FemuxModel& model) {
  std::stringstream buffer;
  SaveModel(model, buffer);
  FemuxModel loaded;
  return LoadModel(buffer, &loaded);
}

TEST(SerializeTest, LoadsAHandBuiltModelItCanServe) {
  FemuxModel model = HandBuiltModel();
  std::stringstream buffer;
  SaveModel(model, buffer);
  FemuxModel loaded;
  ASSERT_TRUE(LoadModel(buffer, &loaded));
  for (int i = -1; i <= 2; ++i) {
    EXPECT_NE(loaded.MakeForecaster(i), nullptr) << i;
  }
  // Without margins there is no default margin to check.
  model.margins.clear();
  model.default_margin = 5;
  EXPECT_TRUE(SavesAndLoads(model));
}

TEST(SerializeTest, RejectsDefaultForecasterOutOfRange) {
  FemuxModel model = HandBuiltModel();
  model.default_forecaster = 7;
  EXPECT_FALSE(SavesAndLoads(model));
  model.default_forecaster = 2;
  EXPECT_FALSE(SavesAndLoads(model));
  model.default_forecaster = -1;
  EXPECT_FALSE(SavesAndLoads(model));
}

TEST(SerializeTest, RejectsDefaultMarginOutOfRange) {
  FemuxModel model = HandBuiltModel();
  model.default_margin = 3;
  EXPECT_FALSE(SavesAndLoads(model));
  model.default_margin = 2;
  EXPECT_FALSE(SavesAndLoads(model));
  model.default_margin = -1;
  EXPECT_FALSE(SavesAndLoads(model));
}

TEST(SerializeTest, RejectsUnknownForecasterName) {
  FemuxModel model = HandBuiltModel();
  model.forecaster_names[0] = "no_such_forecaster";
  EXPECT_FALSE(SavesAndLoads(model));
  model.forecaster_names[0] = "moving_average_0";
  EXPECT_FALSE(SavesAndLoads(model));
}

TEST(SerializeTest, RejectsEmptyForecasterList) {
  FemuxModel model = HandBuiltModel();
  model.forecaster_names.clear();
  model.default_forecaster = 0;
  EXPECT_FALSE(SavesAndLoads(model));
}

TEST(SerializeTest, RejectsCorruptInput) {
  FemuxModel model;
  std::stringstream bad("not-a-model 3");
  EXPECT_FALSE(LoadModel(bad, &model));
  BlockTable table;
  std::stringstream bad2("junk");
  EXPECT_FALSE(LoadBlockTable(bad2, &table));
}

}  // namespace
}  // namespace femux
