#include "src/core/femux.h"

#include <algorithm>
#include <cstddef>

namespace femux {
namespace {

// The longest history any forecaster in the model's set prefers. The
// stream retains that much from the start, so a block switch to any of
// them finds a full ring.
std::size_t RingCapacity(const FemuxModel& model) {
  std::size_t capacity = 0;
  for (std::size_t i = 0; i < model.forecaster_names.size(); ++i) {
    const std::unique_ptr<Forecaster> f = model.MakeForecaster(static_cast<int>(i));
    if (f != nullptr) {
      capacity = std::max(capacity, f->preferred_history());
    }
  }
  return capacity;
}

}  // namespace

FemuxPolicy::FemuxPolicy(std::shared_ptr<const FemuxModel> model,
                         double mean_execution_ms, double margin)
    : model_(std::move(model)),
      extractor_(model_->features, model_->feature_mode),
      mean_execution_ms_(mean_execution_ms), margin_(margin),
      stream_(kDefaultHistoryMinutes, RingCapacity(*model_)) {
  if (model_->feature_mode == FeatureMode::kExact) {
    block_buffer_.reserve(model_->block_minutes);
  }
  current_index_ = model_->default_forecaster;
  forecaster_ = model_->MakeForecaster(current_index_);
  stream_.Bind(*forecaster_);
  if (!model_->margins.empty()) {
    selected_margin_ =
        model_->margins[static_cast<std::size_t>(model_->default_margin)];
  }
}

void FemuxPolicy::CompleteBlock() {
  std::vector<double> raw;
  if (model_->feature_mode == FeatureMode::kSketch) {
    FeatureExtractor::Workspace workspace;
    extractor_.ExtractSketchInto(block_sketch_, mean_execution_ms_, &workspace);
    raw = std::move(workspace.out);
    block_sketch_.Reset();
    block_samples_ = 0;
  } else {
    raw = extractor_.Extract(block_buffer_, mean_execution_ms_);
  }
  const FemuxModel::Selection selected = model_->Select(raw);
  ++blocks_per_forecaster_[model_->forecaster_names[static_cast<std::size_t>(
      selected.forecaster)]];
  if (selected.forecaster != current_index_) {
    current_index_ = selected.forecaster;
    // Learned forecasters come pre-loaded with their cluster's trained
    // state (no-op for the closed-form set).
    forecaster_ = model_->MakeForecasterForCluster(selected.forecaster,
                                                   selected.cluster);
    ++switch_count_;
    // Block-boundary warm handoff: Bind seeds the fresh forecaster's
    // sliding window from the series ring, so it starts with the same
    // history a cold re-seed would have read, and pays the O(window) cost
    // here at the block boundary, once.
    stream_.Bind(*forecaster_);
  }
  selected_margin_ = selected.margin;
  block_buffer_.clear();
}

double FemuxPolicy::TargetUnits(std::span<const double> demand_history) {
  if (demand_history.empty()) {
    return 0.0;
  }
  // The simulator advances one epoch per call, so the newest history entry
  // is exactly one unseen sample — the only element the policy reads.
  const double newest = demand_history.back();
  stream_.Append(newest);
  if (model_->feature_mode == FeatureMode::kSketch) {
    block_sketch_.Add(newest);
    if (++block_samples_ >= model_->block_minutes) {
      CompleteBlock();
    }
  } else {
    block_buffer_.push_back(newest);
    if (block_buffer_.size() >= model_->block_minutes) {
      CompleteBlock();
    }
  }
  return stream_.Forecast() * margin_ * selected_margin_;
}

std::unique_ptr<ScalingPolicy> FemuxPolicy::Clone() const {
  return std::make_unique<FemuxPolicy>(model_, mean_execution_ms_, margin_);
}

int FemuxPolicy::distinct_forecasters_used() const {
  return static_cast<int>(blocks_per_forecaster_.size());
}

}  // namespace femux
