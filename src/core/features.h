// Block partitioning and per-block feature extraction (§4.3.2).
//
// FeMux divides each application's concurrency series into fixed-size
// blocks (504 minutes by default — the BDS linearity test needs >= 400
// points, and 504 divides the 14-day Azure trace into 40 blocks). Once per
// completed block it computes a small feature vector:
//   stationarity  — ADF t-statistic (more negative = more stationary)
//   linearity     — |BDS statistic| on AR residuals (larger = less linear)
//   harmonics     — top-10 spectral energy concentration in [0, 1]
//   density       — log10(1 + total invocations-equivalent in the block)
//   exec_time     — log10 of the app's mean execution time (only when the
//                   exec-aware RUM is in use, §5.1.3)
#ifndef SRC_CORE_FEATURES_H_
#define SRC_CORE_FEATURES_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/stats/sketch.h"

namespace femux {

inline constexpr std::size_t kDefaultBlockMinutes = 504;

// Feature identifiers; also the ablation axis of Fig. 18.
enum class Feature {
  kStationarity,
  kLinearity,
  kHarmonics,
  kDensity,
  kExecTime,
};

std::string FeatureName(Feature feature);

// The paper's default feature set (exec time is added only for FeMux-Exec).
std::vector<Feature> DefaultFeatureSet();

// How block features are computed (DESIGN.md §14).
//
// kExact is the paper's path: the full block is resident and each feature
// runs its exact statistic (ADF, BDS on AR residuals, FFT concentration).
// This is the default and the escape hatch whenever fidelity to the paper's
// exact feature definitions is required (all committed goldens use it).
//
// kSketch replaces each feature with a bounded streaming analogue computed
// from a BlockSketch, keeping per-app block state O(1) in trace length at
// per-second resolution. The feature-vector DIMENSION is unchanged — each
// Feature enum value maps to a sketch analogue of the same signal — so the
// classifier/cluster pipeline is untouched:
//   kStationarity — lag-1 autocorrelation in [-1, 1] (stationary bursty
//                   series decorrelate; trends/walks sit near 1).
//   kLinearity    — coefficient of variation clamped to [0, 50].
//   kHarmonics    — log10(1 + p90) of the block distribution (periodic
//                   spikes fatten the upper quantiles).
//   kDensity      — log10(1 + sum), same as exact (bit-identical: the sum
//                   accumulates in the same forward order).
//   kExecTime     — unchanged (does not depend on the block).
// The sketch features are different STATISTICS, not approximations of the
// exact ones, so models must be trained and served in the same mode
// (FemuxModel::feature_mode records it). Sketch-vs-exact parity for the
// underlying statistics is property-tested in tests/stats/sketch_test.cc
// and parity-gated at fleet scale in bench_fleet_scale.
enum class FeatureMode {
  kExact,
  kSketch,
};

class FeatureExtractor {
 public:
  // Reusable per-thread scratch for block-sweep callers (the trainer
  // extracts features for thousands of blocks; reusing the AR-residual
  // buffer and the output vector avoids one allocation wave per block).
  struct Workspace {
    std::vector<double> residuals;  // AR(5) residuals of the current block.
    std::vector<double> sorted;     // Sorted copy for exact quantiles.
    std::vector<double> out;
  };

  explicit FeatureExtractor(std::vector<Feature> features = DefaultFeatureSet(),
                            FeatureMode mode = FeatureMode::kExact);

  // Extracts the configured features from one block of the concurrency
  // series. `mean_execution_ms` is used by Feature::kExecTime.
  // Inexpensive by design: <5 ms per block (§4.3.2).
  std::vector<double> Extract(std::span<const double> block,
                              double mean_execution_ms = 0.0) const;

  // Workspace-reusing variant; identical output. The AR-residual OLS fit is
  // hoisted out of the per-feature dispatch and run at most once per block,
  // shared by every feature that consumes it. In sketch mode the block is
  // streamed through a BlockSketch and ExtractSketchInto produces the row.
  void ExtractInto(std::span<const double> block, double mean_execution_ms,
                   Workspace* workspace) const;

  // Sketch-mode row from an already-populated sketch (serving callers feed
  // samples incrementally and never hold the block). Valid in any mode.
  void ExtractSketchInto(const BlockSketch& sketch, double mean_execution_ms,
                         Workspace* workspace) const;

  // Exact counterpart of ExtractSketchInto computed from the resident
  // block (exact autocorrelation/CV/quantile/sum) — the parity reference
  // the sketch suite and bench gate compare against.
  void ExtractSketchReferenceInto(std::span<const double> block,
                                  double mean_execution_ms,
                                  Workspace* workspace) const;

  const std::vector<Feature>& features() const { return features_; }
  std::size_t dimension() const { return features_.size(); }
  FeatureMode mode() const { return mode_; }

 private:
  std::vector<Feature> features_;
  FeatureMode mode_;
};

// Number of complete blocks in a series of `n` samples.
std::size_t BlockCount(std::size_t n, std::size_t block_size = kDefaultBlockMinutes);

// The b-th complete block of `series` as a subspan.
std::span<const double> BlockSlice(std::span<const double> series, std::size_t b,
                                   std::size_t block_size = kDefaultBlockMinutes);

}  // namespace femux

#endif  // SRC_CORE_FEATURES_H_
