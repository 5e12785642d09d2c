#include "src/core/model.h"

#include "src/forecast/registry.h"

namespace femux {

FemuxModel::Selection FemuxModel::Select(const std::vector<double>& raw_features) const {
  Selection selection;
  selection.forecaster = default_forecaster;
  selection.margin =
      margins.empty() ? 1.0 : margins[static_cast<std::size_t>(default_margin)];
  if (!scaler.fitted() || forecaster_names.empty()) {
    return selection;
  }
  const std::vector<double> scaled = scaler.Transform(raw_features);
  int forecaster = default_forecaster;
  int margin = default_margin;
  switch (classifier) {
    case ClassifierKind::kKMeans: {
      if (kmeans.cluster_count() == 0) {
        return selection;
      }
      const std::size_t cluster = kmeans.Predict(scaled);
      if (cluster < cluster_to_forecaster.size()) {
        forecaster = cluster_to_forecaster[cluster];
        selection.cluster = static_cast<int>(cluster);
      }
      if (cluster < cluster_to_margin.size()) {
        margin = cluster_to_margin[cluster];
      }
      break;
    }
    case ClassifierKind::kDecisionTree:
    case ClassifierKind::kRandomForest: {
      // Supervised labels encode (forecaster, margin) pairs.
      const int label = classifier == ClassifierKind::kDecisionTree
                            ? (tree.fitted() ? tree.Predict(scaled) : -1)
                            : (forest.tree_count() > 0 ? forest.Predict(scaled) : -1);
      if (label >= 0) {
        const int margin_count = static_cast<int>(std::max<std::size_t>(1, margins.size()));
        forecaster = label / margin_count;
        margin = label % margin_count;
      }
      break;
    }
  }
  if (forecaster < 0 ||
      static_cast<std::size_t>(forecaster) >= forecaster_names.size()) {
    forecaster = default_forecaster;
    margin = default_margin;
    selection.cluster = -1;
  }
  selection.forecaster = forecaster;
  if (!margins.empty() && margin >= 0 &&
      static_cast<std::size_t>(margin) < margins.size()) {
    selection.margin = margins[static_cast<std::size_t>(margin)];
  }
  return selection;
}

std::unique_ptr<Forecaster> FemuxModel::MakeForecaster(int index) const {
  if (index < 0 || static_cast<std::size_t>(index) >= forecaster_names.size()) {
    index = default_forecaster;
  }
  return MakeForecasterByName(forecaster_names[static_cast<std::size_t>(index)],
                              refit_interval);
}

std::unique_ptr<Forecaster> FemuxModel::MakeForecasterForCluster(
    int index, int cluster) const {
  std::unique_ptr<Forecaster> forecaster = MakeForecaster(index);
  if (forecaster == nullptr || cluster < 0 ||
      static_cast<std::size_t>(cluster) >= cluster_learned_state.size()) {
    return forecaster;
  }
  const std::string& blob = cluster_learned_state[static_cast<std::size_t>(cluster)];
  if (blob.empty() || !forecaster->HasOpaqueState()) {
    return forecaster;
  }
  // Only hand a cluster's state to the forecaster it was trained for.
  if (static_cast<std::size_t>(cluster) >= cluster_to_forecaster.size() ||
      cluster_to_forecaster[static_cast<std::size_t>(cluster)] != index) {
    return forecaster;
  }
  forecaster->LoadOpaqueState(blob);  // Fresh instance on failure.
  return forecaster;
}

}  // namespace femux
