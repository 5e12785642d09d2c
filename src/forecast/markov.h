// Markov-chain forecaster (Hamilton '96; CloudInsight-style) for repetitive
// invocation patterns. History values are quantized into `states` levels
// (quantile bins), a transition matrix is estimated from the window, and
// the forecast is the expected level after propagating the current state
// distribution `horizon` steps.
#ifndef SRC_FORECAST_MARKOV_H_
#define SRC_FORECAST_MARKOV_H_

#include <cstddef>
#include <vector>

#include "src/forecast/forecaster.h"
#include "src/forecast/sorted_window.h"

namespace femux {

class MarkovChainForecaster final : public Forecaster {
 public:
  explicit MarkovChainForecaster(std::size_t states = 4);

  std::string_view name() const override { return "markov_chain"; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override;
  std::unique_ptr<Forecaster> Clone() const override;

  // Incremental protocol: the window's sorted order is maintained under
  // insert/erase (replacing the per-call full sort), and transition counts
  // plus per-state level sums update incrementally as bucket pairs slide
  // in/out. While the counts are valid the quantile bounds have not moved
  // since the last recount, so a sample's bucket is StateOf(sample) and
  // none is stored. When the bounds move (so every sample's bucket may
  // change) the counts are recounted from the window in batch order.
  // Parity bound vs the batch path: counts are exact (small integers),
  // level sums are within ~1e-9 relative between recounts.
  void BeginWindow(std::span<const double> window, std::size_t capacity) override;
  void ObserveAppend(std::span<const double> previous,
                     std::span<const double> window) override;
  double ForecastNext(std::span<const double> window) override;

  std::size_t states() const { return states_; }

 private:
  std::size_t StateOf(double v) const;
  void ComputeBounds(std::vector<double>* out) const;
  void RecountFromWindow(std::span<const double> window);

  std::size_t states_;

  // Incremental sliding-window state (DESIGN.md §7).
  SortedWindow sorted_;              // Window values, ascending.
  std::vector<double> bounds_;       // Quantile bucket upper bounds.
  std::vector<double> bounds_scratch_;
  std::vector<double> counts_;       // states x states raw pair counts.
  std::vector<double> level_sum_;
  std::vector<double> level_count_;
  std::size_t slides_since_recount_ = 0;
  bool counts_valid_ = false;
};

}  // namespace femux

#endif  // SRC_FORECAST_MARKOV_H_
