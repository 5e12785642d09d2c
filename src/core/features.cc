#include "src/core/features.h"

#include <algorithm>
#include <cmath>

#include "src/forecast/ar.h"
#include "src/stats/adf.h"
#include "src/stats/bds.h"
#include "src/stats/descriptive.h"
#include "src/stats/fft.h"
#include "src/stats/ols.h"

namespace femux {
namespace {

// Residuals of a light AR(5) fit; the BDS test is run on these so that
// linear structure is removed first (§4.3.2).
std::vector<double> ArResiduals(std::span<const double> block) {
  constexpr std::size_t kLags = 5;
  if (block.size() <= kLags + 4 || Variance(block) == 0.0) {
    return {};
  }
  const std::size_t rows = block.size() - kLags;
  Matrix x(rows, kLags + 1);
  std::vector<double> y(rows);
  for (std::size_t t = kLags; t < block.size(); ++t) {
    const std::size_t r = t - kLags;
    y[r] = block[t];
    x(r, 0) = 1.0;
    for (std::size_t k = 1; k <= kLags; ++k) {
      x(r, k) = block[t - k];
    }
  }
  OlsResult fit = FitOls(x, y);
  if (!fit.ok) {
    return {};
  }
  return std::move(fit.residuals);
}

}  // namespace

std::string FeatureName(Feature feature) {
  switch (feature) {
    case Feature::kStationarity:
      return "stationarity";
    case Feature::kLinearity:
      return "linearity";
    case Feature::kHarmonics:
      return "harmonics";
    case Feature::kDensity:
      return "density";
    case Feature::kExecTime:
      return "exec_time";
  }
  return "unknown";
}

std::vector<Feature> DefaultFeatureSet() {
  return {Feature::kStationarity, Feature::kLinearity, Feature::kHarmonics,
          Feature::kDensity};
}

FeatureExtractor::FeatureExtractor(std::vector<Feature> features, FeatureMode mode)
    : features_(std::move(features)), mode_(mode) {}

std::vector<double> FeatureExtractor::Extract(std::span<const double> block,
                                              double mean_execution_ms) const {
  Workspace workspace;
  ExtractInto(block, mean_execution_ms, &workspace);
  return std::move(workspace.out);
}

void FeatureExtractor::ExtractInto(std::span<const double> block,
                                   double mean_execution_ms,
                                   Workspace* workspace) const {
  if (mode_ == FeatureMode::kSketch) {
    // Stream the block through a sketch and derive the row from it, so the
    // training path computes exactly what a sketch-fed serving path would.
    BlockSketch sketch;
    for (double v : block) {
      sketch.Add(v);
    }
    ExtractSketchInto(sketch, mean_execution_ms, workspace);
    return;
  }
  std::vector<double>& out = workspace->out;
  out.clear();
  out.reserve(features_.size());

  // The AR(5) residual fit feeds every residual-based feature (today the
  // BDS linearity statistic); hoisting it here runs the OLS once per block
  // no matter how many features consume it.
  bool residuals_ready = false;
  for (Feature f : features_) {
    switch (f) {
      case Feature::kStationarity: {
        // Fixed small lag keeps extraction under the paper's 5 ms budget.
        const AdfResult adf = AdfTest(block, /*lags=*/4);
        // Clamp: extremely stationary series produce huge negative stats.
        out.push_back(adf.ok ? std::max(adf.statistic, -50.0) : 0.0);
        break;
      }
      case Feature::kLinearity: {
        if (!residuals_ready) {
          workspace->residuals = ArResiduals(block);
          residuals_ready = true;
        }
        const BdsResult bds = BdsTest(workspace->residuals, /*dimension=*/2);
        out.push_back(bds.ok ? std::min(std::abs(bds.statistic), 50.0) : 0.0);
        break;
      }
      case Feature::kHarmonics:
        out.push_back(SpectralConcentration(block, /*k=*/10));
        break;
      case Feature::kDensity: {
        double total = 0.0;
        for (double v : block) {
          total += v;
        }
        out.push_back(std::log10(1.0 + total));
        break;
      }
      case Feature::kExecTime:
        out.push_back(std::log10(1.0 + std::max(0.0, mean_execution_ms)));
        break;
    }
  }
}

void FeatureExtractor::ExtractSketchInto(const BlockSketch& sketch,
                                         double mean_execution_ms,
                                         Workspace* workspace) const {
  std::vector<double>& out = workspace->out;
  out.clear();
  out.reserve(features_.size());
  for (Feature f : features_) {
    switch (f) {
      case Feature::kStationarity:
        // Bounded like the clamped ADF stat; high persistence (trend/walk)
        // maps high, bursty decorrelated series map near zero.
        out.push_back(std::clamp(sketch.Lag1Autocorrelation(), -1.0, 1.0));
        break;
      case Feature::kLinearity:
        // Dispersion stands in for nonlinearity; same clamp as |BDS|.
        out.push_back(std::clamp(sketch.cv(), 0.0, 50.0));
        break;
      case Feature::kHarmonics:
        // Periodic spikes concentrate mass in the upper quantiles.
        out.push_back(std::log10(1.0 + std::max(0.0, sketch.Quantile90())));
        break;
      case Feature::kDensity:
        // Identical to the exact feature: the sketch's running sum adds the
        // block in the same forward order.
        out.push_back(std::log10(1.0 + sketch.sum()));
        break;
      case Feature::kExecTime:
        out.push_back(std::log10(1.0 + std::max(0.0, mean_execution_ms)));
        break;
    }
  }
}

void FeatureExtractor::ExtractSketchReferenceInto(std::span<const double> block,
                                                  double mean_execution_ms,
                                                  Workspace* workspace) const {
  // Exact versions of the sketch analogues (NOT the paper's exact features)
  // — the oracle the sketch parity gates compare against.
  std::vector<double>& out = workspace->out;
  out.clear();
  out.reserve(features_.size());
  for (Feature f : features_) {
    switch (f) {
      case Feature::kStationarity:
        out.push_back(std::clamp(Autocorrelation(block, 1), -1.0, 1.0));
        break;
      case Feature::kLinearity:
        out.push_back(std::clamp(CoefficientOfVariation(block), 0.0, 50.0));
        break;
      case Feature::kHarmonics: {
        workspace->sorted.assign(block.begin(), block.end());
        std::sort(workspace->sorted.begin(), workspace->sorted.end());
        const double p90 = workspace->sorted.empty()
                               ? 0.0
                               : QuantileSorted(workspace->sorted, 0.9);
        out.push_back(std::log10(1.0 + std::max(0.0, p90)));
        break;
      }
      case Feature::kDensity: {
        double total = 0.0;
        for (double v : block) {
          total += v;
        }
        out.push_back(std::log10(1.0 + total));
        break;
      }
      case Feature::kExecTime:
        out.push_back(std::log10(1.0 + std::max(0.0, mean_execution_ms)));
        break;
    }
  }
}

std::size_t BlockCount(std::size_t n, std::size_t block_size) {
  return block_size == 0 ? 0 : n / block_size;
}

std::span<const double> BlockSlice(std::span<const double> series, std::size_t b,
                                   std::size_t block_size) {
  return series.subspan(b * block_size, block_size);
}

}  // namespace femux
