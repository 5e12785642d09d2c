// Serving-path parity for the incremental forecasting protocol: the
// rewired policies (ForecasterPolicy, FemuxPolicy) must produce the same
// per-epoch targets as the pre-PR batch implementations, including across
// FemuxPolicy's block-boundary forecaster switches where the forecast
// stream has to re-seed its window state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "src/core/femux.h"
#include "src/core/trainer.h"
#include "src/forecast/ar.h"
#include "src/forecast/fft_forecaster.h"
#include "src/forecast/markov.h"
#include "src/forecast/smoothing.h"
#include "src/sim/fleet.h"
#include "src/trace/azure_generator.h"

namespace femux {
namespace {

Dataset SmallAzure(int apps = 10, int days = 2) {
  AzureGeneratorOptions options;
  options.num_apps = apps;
  options.duration_days = days;
  return GenerateAzureDataset(options);
}

// The pre-PR ForecasterPolicy::TargetUnits, verbatim: window the history and
// call the batch Forecast() path every epoch.
double LegacyTargetUnits(Forecaster& forecaster, std::span<const double> history,
                         double margin, std::size_t history_len,
                         bool reactive_floor) {
  if (history.empty()) {
    return 0.0;
  }
  const std::size_t window = std::max(history_len, forecaster.preferred_history());
  const std::size_t start = history.size() > window ? history.size() - window : 0;
  const auto out = forecaster.Forecast(history.subspan(start), 1);
  const double target = (out.empty() ? 0.0 : out.front()) * margin;
  if (reactive_floor) {
    return std::max(target, history.back());
  }
  return target;
}

void ExpectNearRelative(double a, double b, double bound, std::size_t t) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_LE(std::fabs(a - b) / scale, bound) << "t=" << t << " legacy=" << a
                                             << " incremental=" << b;
}

TEST(ServingIncrementalTest, ForecasterPolicyMatchesLegacyBatch) {
  const Dataset data = SmallAzure(4);
  const std::unique_ptr<Forecaster> prototypes[] = {
      std::make_unique<ArForecaster>(10, 5),
      std::make_unique<ExponentialSmoothingForecaster>(),
      std::make_unique<HoltForecaster>(),
      std::make_unique<MarkovChainForecaster>(4),
      std::make_unique<FftForecaster>(10, 5, 256),
  };
  for (const auto& prototype : prototypes) {
    for (const AppTrace& app : data.apps) {
      const std::vector<double> demand = DemandSeries(app, 60.0);
      ForecasterPolicy policy(prototype->Clone(), 1.1, kDefaultHistoryMinutes,
                              /*reactive_floor=*/true);
      const std::unique_ptr<Forecaster> legacy = prototype->Clone();
      for (std::size_t t = 0; t < demand.size(); ++t) {
        const std::span<const double> history =
            std::span<const double>(demand).subspan(0, t);
        const double expect =
            LegacyTargetUnits(*legacy, history, 1.1, kDefaultHistoryMinutes, true);
        const double got = policy.TargetUnits(history);
        ExpectNearRelative(expect, got, 1e-9, t);
      }
    }
  }
}

// Pre-PR FemuxPolicy::TargetUnits mirror: same block bookkeeping and
// classifier switching, but forecasting through the batch path.
class LegacyFemuxMirror {
 public:
  explicit LegacyFemuxMirror(std::shared_ptr<const FemuxModel> model,
                             double mean_execution_ms = 0.0, double margin = 1.0)
      : model_(std::move(model)), extractor_(model_->features),
        mean_execution_ms_(mean_execution_ms), margin_(margin) {
    current_index_ = model_->default_forecaster;
    forecaster_ = model_->MakeForecaster(current_index_);
    if (!model_->margins.empty()) {
      selected_margin_ =
          model_->margins[static_cast<std::size_t>(model_->default_margin)];
    }
  }

  double TargetUnits(std::span<const double> demand_history) {
    if (!demand_history.empty()) {
      block_buffer_.push_back(demand_history.back());
      if (block_buffer_.size() >= model_->block_minutes) {
        CompleteBlock();
      }
    }
    if (demand_history.empty()) {
      return 0.0;
    }
    const std::size_t window =
        std::max(kDefaultHistoryMinutes, forecaster_->preferred_history());
    const std::size_t start =
        demand_history.size() > window ? demand_history.size() - window : 0;
    const auto out = forecaster_->Forecast(demand_history.subspan(start), 1);
    return (out.empty() ? 0.0 : out.front()) * margin_ * selected_margin_;
  }

  int switch_count() const { return switch_count_; }

 private:
  void CompleteBlock() {
    const std::vector<double> raw =
        extractor_.Extract(block_buffer_, mean_execution_ms_);
    const FemuxModel::Selection selected = model_->Select(raw);
    if (selected.forecaster != current_index_) {
      current_index_ = selected.forecaster;
      forecaster_ = model_->MakeForecaster(selected.forecaster);
      ++switch_count_;
    }
    selected_margin_ = selected.margin;
    block_buffer_.clear();
  }

  std::shared_ptr<const FemuxModel> model_;
  FeatureExtractor extractor_;
  double mean_execution_ms_;
  double margin_;
  std::vector<double> block_buffer_;
  std::unique_ptr<Forecaster> forecaster_;
  int current_index_ = 0;
  double selected_margin_ = 1.0;
  int switch_count_ = 0;
};

TEST(ServingIncrementalTest, FemuxPolicyMatchesLegacyAcrossSwitches) {
  const Dataset data = SmallAzure(10, 2);
  std::vector<int> indices(data.apps.size());
  std::iota(indices.begin(), indices.end(), 0);
  TrainerOptions options;
  options.block_minutes = 504;
  options.clusters = 10;
  options.refit_interval = 20;
  const TrainResult trained = TrainFemux(data, indices, Rum::Default(), options);
  auto model = std::make_shared<FemuxModel>(trained.model);

  int total_switches = 0;
  for (const AppTrace& app : data.apps) {
    const std::vector<double> demand = DemandSeries(app, 60.0);
    FemuxPolicy policy(model, app.mean_execution_ms);
    LegacyFemuxMirror legacy(model, app.mean_execution_ms);
    for (std::size_t t = 0; t < demand.size(); ++t) {
      const std::span<const double> history =
          std::span<const double>(demand).subspan(0, t);
      const double expect = legacy.TargetUnits(history);
      const double got = policy.TargetUnits(history);
      ExpectNearRelative(expect, got, 1e-9, t);
    }
    EXPECT_EQ(policy.switch_count(), legacy.switch_count());
    total_switches += policy.switch_count();
  }
  // The parity above is only meaningful if some app actually switched
  // forecasters (exercising the stream re-seed on a fresh instance).
  EXPECT_GT(total_switches, 0);
}

TEST(ServingIncrementalTest, FleetMetricsUnchangedByIncrementalPath) {
  // End-to-end: the rounded provisioning decisions (and so the metrics) of
  // a fleet run must not move under the incremental serving path. Compare
  // against a wrapper of the same forecaster that implements only
  // Forecast(), so the base ForecastNext() refits it on every sample.
  class BatchOnlyAr final : public Forecaster {
   public:
    std::string_view name() const override { return "ar_batch_only"; }
    std::vector<double> Forecast(std::span<const double> history,
                                 std::size_t horizon) override {
      return inner_.Forecast(history, horizon);
    }
    std::unique_ptr<Forecaster> Clone() const override {
      return std::make_unique<BatchOnlyAr>();
    }

   private:
    ArForecaster inner_{10, 5};
  };

  const Dataset data = SmallAzure(6, 1);
  ForecasterPolicy incremental(std::make_unique<ArForecaster>(10, 5));
  ForecasterPolicy batch_only(std::make_unique<BatchOnlyAr>());
  const FleetResult a = SimulateFleetUniform(data, incremental, SimOptions{});
  const FleetResult b = SimulateFleetUniform(data, batch_only, SimOptions{});
  ASSERT_EQ(a.per_app.size(), b.per_app.size());
  for (std::size_t i = 0; i < a.per_app.size(); ++i) {
    EXPECT_NEAR(a.per_app[i].cold_starts, b.per_app[i].cold_starts, 1e-9);
    EXPECT_NEAR(a.per_app[i].wasted_gb_seconds, b.per_app[i].wasted_gb_seconds,
                1e-6);
  }
}

}  // namespace
}  // namespace femux
