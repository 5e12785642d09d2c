// FeMux online lifetime manager (§4.3, Fig. 10).
//
// One FemuxPolicy instance manages one application. Each scaling epoch it
// receives the demand history, appends the newest sample to its
// ForecastStream and its block buffer, and — when a block completes —
// asynchronously-equivalent work happens inline: features are extracted,
// the pre-trained classifier picks the forecaster for the next block, and
// the stream binds it, seeding it from the ring. Until the first block
// completes, the model's default forecaster (lowest total training RUM) is
// used.
#ifndef SRC_CORE_FEMUX_H_
#define SRC_CORE_FEMUX_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/model.h"
#include "src/sim/policy.h"

namespace femux {

class FemuxPolicy final : public ScalingPolicy {
 public:
  // `model` is shared read-only across applications. `mean_execution_ms`
  // feeds the exec-time feature when the model uses it. `margin` inflates
  // forecasts for headroom (1.0 = none, matching the paper's simulations).
  FemuxPolicy(std::shared_ptr<const FemuxModel> model, double mean_execution_ms = 0.0,
              double margin = 1.0);

  std::string_view name() const override { return "femux"; }
  double TargetUnits(std::span<const double> demand_history) override;
  std::unique_ptr<ScalingPolicy> Clone() const override;

  // Introspection for the switching analyses (Fig. 17).
  int current_forecaster() const { return current_index_; }
  int switch_count() const { return switch_count_; }
  // Number of distinct forecasters this app has used so far.
  int distinct_forecasters_used() const;
  const std::map<std::string, int>& blocks_per_forecaster() const {
    return blocks_per_forecaster_;
  }

 private:
  void CompleteBlock();

  std::shared_ptr<const FemuxModel> model_;
  FeatureExtractor extractor_;
  double mean_execution_ms_;
  double margin_;
  // Exact mode buffers the current block resident (block_minutes doubles);
  // sketch mode streams each sample into the O(1) sketch instead, so
  // per-app block state is independent of the block length (DESIGN.md §14).
  std::vector<double> block_buffer_;
  BlockSketch block_sketch_;
  std::size_t block_samples_ = 0;  // Samples fed to the current sketch.
  std::unique_ptr<Forecaster> forecaster_;
  // The app's series ring and the current forecaster's incremental state.
  // The ring is sized for the largest window in the model's set, so a
  // block switch can warm-seed whichever forecaster the classifier picks.
  ForecastStream stream_;
  int current_index_ = 0;
  double selected_margin_ = 1.0;
  int switch_count_ = 0;
  std::map<std::string, int> blocks_per_forecaster_;
};

}  // namespace femux

#endif  // SRC_CORE_FEMUX_H_
