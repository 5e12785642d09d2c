#include "src/forecast/smoothing.h"

#include <array>
#include <limits>

#include "src/stats/simd.h"

namespace femux {
namespace {

constexpr std::array<double, 9> kAlphaGrid = {0.1, 0.2, 0.3, 0.4, 0.5,
                                              0.6, 0.7, 0.8, 0.9};
constexpr std::array<double, 4> kBetaGrid = {0.05, 0.1, 0.3, 0.5};
constexpr std::size_t kHoltGridSize = kAlphaGrid.size() * kBetaGrid.size();

// The Holt grid flattened in (alpha outer, beta inner) sweep order for the
// simd::HoltSweep kernel. alpha_betas holds alpha * beta precomputed:
// the scalar recurrence's `alpha * beta * err` parses as
// `(alpha * beta) * err`, so factoring the product out is bit-preserving.
struct HoltGrid {
  std::array<double, kHoltGridSize> alphas;
  std::array<double, kHoltGridSize> alpha_betas;
};

const HoltGrid& FlatHoltGrid() {
  static const HoltGrid grid = [] {
    HoltGrid g;
    std::size_t i = 0;
    for (const double alpha : kAlphaGrid) {
      for (const double beta : kBetaGrid) {
        g.alphas[i] = alpha;
        g.alpha_betas[i] = alpha * beta;
        ++i;
      }
    }
    return g;
  }();
  return grid;
}

// Grid sweeps through the SIMD kernel layer (lanes = grid points, each
// lane running exactly the scalar one-step-ahead recurrence — see
// src/stats/simd.h). Selection keeps the first strict improvement, so ties
// resolve to the lowest grid index exactly as the per-alpha loops did; if
// no SSE is below infinity the last sample stands.
double SweepSes(std::span<const double> y) {
  std::array<double, kAlphaGrid.size()> levels;
  std::array<double, kAlphaGrid.size()> sses;
  simd::SesSweep(y.data(), y.size(), kAlphaGrid.data(), kAlphaGrid.size(),
                 levels.data(), sses.data());
  double best_level = y.back();
  double best_sse = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < kAlphaGrid.size(); ++i) {
    if (sses[i] < best_sse) {
      best_sse = sses[i];
      best_level = levels[i];
    }
  }
  return best_level;
}

void SweepHolt(std::span<const double> y, double* best_level,
               double* best_trend) {
  const HoltGrid& grid = FlatHoltGrid();
  std::array<double, kHoltGridSize> levels;
  std::array<double, kHoltGridSize> trends;
  std::array<double, kHoltGridSize> sses;
  simd::HoltSweep(y.data(), y.size(), grid.alphas.data(),
                  grid.alpha_betas.data(), kHoltGridSize, levels.data(),
                  trends.data(), sses.data());
  *best_level = y.back();
  *best_trend = 0.0;
  double best_sse = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < kHoltGridSize; ++i) {
    if (sses[i] < best_sse) {
      best_sse = sses[i];
      *best_level = levels[i];
      *best_trend = trends[i];
    }
  }
}

}  // namespace

std::vector<double> ExponentialSmoothingForecaster::Forecast(
    std::span<const double> history, std::size_t horizon) {
  // SES is flat beyond one step.
  return std::vector<double>(horizon, ForecastNext(history));
}

std::unique_ptr<Forecaster> ExponentialSmoothingForecaster::Clone() const {
  return std::make_unique<ExponentialSmoothingForecaster>();
}

double ExponentialSmoothingForecaster::ForecastNext(std::span<const double> window) {
  if (window.empty()) {
    return 0.0;
  }
  if (window.size() == 1) {
    return ClampPrediction(window.front());
  }
  return ClampPrediction(SweepSes(window));
}

std::vector<double> HoltForecaster::Forecast(std::span<const double> history,
                                             std::size_t horizon) {
  if (history.size() < 3) {
    return std::vector<double>(horizon, ForecastNext(history));
  }
  double best_level = 0.0;
  double best_trend = 0.0;
  SweepHolt(history, &best_level, &best_trend);
  std::vector<double> out;
  out.reserve(horizon);
  for (std::size_t h = 1; h <= horizon; ++h) {
    out.push_back(ClampPrediction(best_level + static_cast<double>(h) * best_trend));
  }
  return out;
}

std::unique_ptr<Forecaster> HoltForecaster::Clone() const {
  return std::make_unique<HoltForecaster>();
}

double HoltForecaster::ForecastNext(std::span<const double> window) {
  if (window.size() < 3) {
    const double last = window.empty() ? 0.0 : window.back();
    return ClampPrediction(last);
  }
  double best_level = 0.0;
  double best_trend = 0.0;
  SweepHolt(window, &best_level, &best_trend);
  // Forecast()'s h = 1 term: 1.0 * best_trend is best_trend exactly.
  return ClampPrediction(best_level + best_trend);
}

}  // namespace femux
