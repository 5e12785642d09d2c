// Trained linear-recurrence forecaster ("linear_state", DESIGN.md §15).
//
// A fixed, deterministic damped linear state-space filter drives a trained
// linear readout. The state h in R^H evolves as
//
//   h' = A h + b * x_norm
//
// where A is block-diagonal — half pure exponential decays at a ladder of
// rates, half damped 2x2 rotations at a ladder of periods — materialized
// dense column-major and driven through the SIMD GemvColMajor kernel. The
// readout y = w.h + w_x * x_last + c is the only trained part: ridge
// regression over the one-step-ahead targets of a peak-normalized series
// (Gram accumulation + Cholesky solve), so "training" is a single linear
// solve, not gradient descent.
//
// Because the state is linear in the inputs, the incremental protocol gets
// an O(H^2) sliding update: appending x_new and evicting x_old is
//
//   h' = A h + b x_new - (A^W b) x_old
//
// with A^W b precomputed; x_old is the front of the previous window. The
// growing phase reuses the exact batch fold step, so incremental-vs-batch
// parity is bit-exact until the window first fills and stays within ~1e-9
// relative after (a periodic refold of the stream's window bounds drift).
// The forecaster reads the last min(size, window) samples of the stream's
// window, as the batch path does, and keeps only the state h.
//
// Unlike the closed-form forecasters, the trained readout is not derivable
// from the retained window, so this class implements the opaque-state API:
// SaveOpaqueState/LoadOpaqueState round-trip the trained parameters
// bit-exactly as a single printable token.
#ifndef SRC_FORECAST_LINEAR_STATE_H_
#define SRC_FORECAST_LINEAR_STATE_H_

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/forecast/forecaster.h"

namespace femux {

class LinearStateForecaster : public Forecaster {
 public:
  struct Options {
    // State dimension; half decay channels, half (pairs of) rotation
    // channels. Must be even and >= 4.
    std::size_t state_dim = 16;
    // Fold window (samples). Forecasts always fold the last `window`
    // samples of the provided history from the zero state.
    std::size_t window = kDefaultHistoryMinutes;
    // Ridge regularizer added to the Gram diagonal (per sample).
    double ridge = 1e-4;
  };

  LinearStateForecaster();
  explicit LinearStateForecaster(const Options& options);

  std::string_view name() const override { return "linear_state"; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override;
  std::unique_ptr<Forecaster> Clone() const override;
  std::size_t preferred_history() const override { return options_.window; }

  // Incremental sliding-window protocol.
  void BeginWindow(std::span<const double> window, std::size_t capacity) override;
  void ObserveAppend(std::span<const double> previous,
                     std::span<const double> window) override;
  double ForecastNext(std::span<const double> window) override;

  // Opaque learned state.
  bool HasOpaqueState() const override { return true; }
  std::string SaveOpaqueState() const override;
  bool LoadOpaqueState(std::string_view blob) override;

  // Fits the readout on `series` (oldest first). Called implicitly by the
  // first Forecast/BeginWindow on an untrained instance; the trainer calls
  // it explicitly on per-cluster series.
  void TrainOnSeries(std::span<const double> series);
  bool trained() const { return trained_; }

 private:
  void StepState(std::vector<double>& h, double x_norm) const;
  double Readout(const std::vector<double>& h, double x_norm_last) const;
  void FoldWindow(std::span<const double> window, std::vector<double>& h) const;
  // The last min(size, options_.window) samples: what the batch path folds.
  std::span<const double> OwnWindow(std::span<const double> window) const {
    return window.last(std::min(window.size(), options_.window));
  }

  Options options_;
  // Dense column-major transition matrix, a_[k * H + r] = A[r][k], and the
  // input vector b. Deterministic (built from the ladders in the .cc).
  std::vector<double> a_;
  std::vector<double> b_;
  // Precomputed A^W b for the sliding eviction update.
  std::vector<double> awb_;

  // Trained readout.
  bool trained_ = false;
  double scale_ = 1.0;
  std::vector<double> w_;
  double wx_ = 0.0;
  double c_ = 0.0;

  // Incremental state (refolded from the window, never serialized).
  std::vector<double> h_;
  std::size_t slides_since_rebuild_ = 0;

  // Scratch for StepState (avoids per-step allocation).
  mutable std::vector<double> step_scratch_;
};

}  // namespace femux

#endif  // SRC_FORECAST_LINEAR_STATE_H_
