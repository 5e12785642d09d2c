#include "src/forecast/markov.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/stats/descriptive.h"

namespace femux {

MarkovChainForecaster::MarkovChainForecaster(std::size_t states)
    : states_(std::clamp<std::size_t>(states, 2, 16)) {}

std::vector<double> MarkovChainForecaster::Forecast(std::span<const double> history,
                                                    std::size_t horizon) {
  if (history.size() < states_ + 2 || Variance(history) == 0.0) {
    const double last = history.empty() ? 0.0 : history.back();
    return std::vector<double>(horizon, ClampPrediction(last));
  }

  // Quantile bin boundaries; a dedicated zero state captures idle periods,
  // which dominate sparse serverless traffic.
  std::vector<double> sorted(history.begin(), history.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> bounds;  // Upper bound of state s (last state open).
  bounds.reserve(states_ - 1);
  for (std::size_t s = 1; s < states_; ++s) {
    const double q = static_cast<double>(s) / static_cast<double>(states_);
    bounds.push_back(QuantileSorted(sorted, q));
  }
  auto state_of = [&bounds](double v) {
    std::size_t s = 0;
    while (s < bounds.size() && v > bounds[s]) {
      ++s;
    }
    return s;
  };

  // Transition counts with add-one smoothing, and per-state level means.
  std::vector<std::vector<double>> transitions(states_,
                                               std::vector<double>(states_, 1.0));
  std::vector<double> level_sum(states_, 0.0);
  std::vector<double> level_count(states_, 0.0);
  for (std::size_t t = 0; t < history.size(); ++t) {
    const std::size_t s = state_of(history[t]);
    level_sum[s] += history[t];
    level_count[s] += 1.0;
    if (t + 1 < history.size()) {
      transitions[s][state_of(history[t + 1])] += 1.0;
    }
  }
  for (auto& row : transitions) {
    double total = 0.0;
    for (double v : row) {
      total += v;
    }
    for (double& v : row) {
      v /= total;
    }
  }
  std::vector<double> level(states_);
  for (std::size_t s = 0; s < states_; ++s) {
    level[s] = level_count[s] > 0.0 ? level_sum[s] / level_count[s] : 0.0;
  }

  // Propagate the state distribution and read out the expected level.
  std::vector<double> dist(states_, 0.0);
  dist[state_of(history.back())] = 1.0;
  std::vector<double> out;
  out.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    std::vector<double> next(states_, 0.0);
    for (std::size_t s = 0; s < states_; ++s) {
      if (dist[s] == 0.0) {
        continue;
      }
      for (std::size_t t = 0; t < states_; ++t) {
        next[t] += dist[s] * transitions[s][t];
      }
    }
    dist = std::move(next);
    double expectation = 0.0;
    for (std::size_t s = 0; s < states_; ++s) {
      expectation += dist[s] * level[s];
    }
    out.push_back(ClampPrediction(expectation));
  }
  return out;
}

std::unique_ptr<Forecaster> MarkovChainForecaster::Clone() const {
  return std::make_unique<MarkovChainForecaster>(states_);
}

namespace {
// Level-sum resync cadence (slides). Counts are exact integers; only the
// level sums drift under add/remove, and a periodic batch-order recount
// keeps that drift far below the 1e-9 parity budget.
constexpr std::size_t kRecountInterval = 512;
}  // namespace

std::size_t MarkovChainForecaster::StateOf(double v) const {
  std::size_t s = 0;
  while (s < bounds_.size() && v > bounds_[s]) {
    ++s;
  }
  return s;
}

void MarkovChainForecaster::ComputeBounds(std::vector<double>* out) const {
  out->clear();
  out->reserve(states_ - 1);
  for (std::size_t s = 1; s < states_; ++s) {
    const double q = static_cast<double>(s) / static_cast<double>(states_);
    out->push_back(QuantileSorted(sorted_.values(), q));
  }
}

void MarkovChainForecaster::RecountFromWindow(std::span<const double> window) {
  counts_.assign(states_ * states_, 0.0);
  level_sum_.assign(states_, 0.0);
  level_count_.assign(states_, 0.0);
  // Batch iteration order so level sums are bit-exact at recount points.
  for (std::size_t t = 0; t < window.size(); ++t) {
    const double v = window[t];
    const std::size_t s = StateOf(v);
    level_sum_[s] += v;
    level_count_[s] += 1.0;
    if (t + 1 < window.size()) {
      counts_[s * states_ + StateOf(window[t + 1])] += 1.0;
    }
  }
  slides_since_recount_ = 0;
  counts_valid_ = true;
}

void MarkovChainForecaster::BeginWindow(std::span<const double> window,
                                        std::size_t capacity) {
  sorted_.Assign(window, capacity);
  counts_valid_ = false;
}

void MarkovChainForecaster::ObserveAppend(std::span<const double> previous,
                                          std::span<const double> window) {
  const double value = window.back();
  const bool did_evict = window.size() == previous.size();

  sorted_.Slide(previous, window);

  if (!counts_valid_) {
    return;  // ForecastNext recounts lazily.
  }
  if (window.size() < states_ + 2) {
    counts_valid_ = false;
    return;
  }
  // Did the quantile bounds move? If so every bucket assignment is suspect.
  ComputeBounds(&bounds_scratch_);
  if (bounds_scratch_ != bounds_) {
    counts_valid_ = false;
    return;
  }
  // The bounds are those of the last recount, so StateOf gives each
  // sample the bucket it was counted in.
  if (did_evict && previous.size() >= 2) {
    const std::size_t s0 = StateOf(previous[0]);
    const std::size_t s1 = StateOf(previous[1]);
    counts_[s0 * states_ + s1] -= 1.0;
    level_sum_[s0] -= previous[0];
    level_count_[s0] -= 1.0;
  } else if (did_evict) {
    counts_valid_ = false;
    return;
  }
  const std::size_t s_new = StateOf(value);
  if (!previous.empty()) {
    counts_[StateOf(previous.back()) * states_ + s_new] += 1.0;
  }
  level_sum_[s_new] += value;
  level_count_[s_new] += 1.0;
  if (++slides_since_recount_ >= kRecountInterval) {
    counts_valid_ = false;
  }
}

double MarkovChainForecaster::ForecastNext(std::span<const double> window) {
  const std::size_t n = window.size();
  const auto fallback = [window, n]() {
    return ClampPrediction(n == 0 ? 0.0 : window.back());
  };
  if (n < states_ + 2) {
    return fallback();
  }
  // The batch path's Variance(window) == 0 gate.
  if (VarianceIsZero(window, sorted_.values().front(), sorted_.values().back())) {
    return fallback();
  }
  if (!counts_valid_) {
    ComputeBounds(&bounds_);
    RecountFromWindow(window);
  }

  // Normalize (with the batch path's add-one smoothing) and take one
  // propagation step from the current state's one-hot distribution.
  const std::size_t cur = StateOf(window.back());
  double total = 0.0;
  for (std::size_t u = 0; u < states_; ++u) {
    total += counts_[cur * states_ + u] + 1.0;
  }
  double expectation = 0.0;
  for (std::size_t t = 0; t < states_; ++t) {
    const double p = (counts_[cur * states_ + t] + 1.0) / total;
    const double level =
        level_count_[t] > 0.0 ? level_sum_[t] / level_count_[t] : 0.0;
    expectation += p * level;
  }
  return ClampPrediction(expectation);
}

}  // namespace femux
