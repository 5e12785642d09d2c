// Autoregressive forecasters: AR(p) (Yule '27) for stationary, linear
// series, and SETAR (Self-Exciting Threshold AutoRegressive; Clements &
// Smith '97) for piecewise-linear, non-stationary series. The paper tunes
// both to 10 lags with up to two SETAR thresholds (§4.3.3).
//
// Both forecasters support a `refit_interval`: coefficients are re-estimated
// only every N calls and reused in between, which keeps offline simulation
// over billions of app-minutes tractable (the model changes slowly at
// minute granularity). refit_interval == 1 refits on every call.
//
// Batch fits accumulate the (p+1)^2 normal equations row by row with
// FitOls's per-element operations and solve them once, so coefficients equal
// FitOls's on the same design bit for bit. A SETAR refit first counts each
// regime's rows, drops threshold candidates with a regime too small to fit,
// and fits each distinct regime row set once, shared by the candidates that
// need it (DESIGN.md §6). SETAR implements only Forecast(): a stream serves
// it through the base ForecastNext() once per observed sample, so its
// refit stride counts samples (DESIGN.md §7).
#ifndef SRC_FORECAST_AR_H_
#define SRC_FORECAST_AR_H_

#include <cstddef>
#include <vector>

#include "src/forecast/forecaster.h"
#include "src/stats/linalg.h"

namespace femux {

class ArForecaster final : public Forecaster {
 public:
  explicit ArForecaster(std::size_t lags = 10, std::size_t refit_interval = 1);

  std::string_view name() const override { return "ar"; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override;
  std::unique_ptr<Forecaster> Clone() const override;

  // Incremental protocol: the (p+1)x(p+1) Gram matrix and moment vector of
  // the AR design are maintained under rank-1 row add/remove as the window
  // slides; refits solve the tiny normal system in a kept workspace instead
  // of rebuilding the design. The window itself is read from the stream.
  // Parity bound vs the batch path: ~1e-9 relative (Gram sums are
  // reassociated; the state is fully rebuilt every few dozen slides so
  // add/remove cancellation error cannot accumulate).
  void BeginWindow(std::span<const double> window, std::size_t capacity) override;
  void ObserveAppend(std::span<const double> previous,
                     std::span<const double> window) override;
  double ForecastNext(std::span<const double> window) override;

  std::size_t lags() const { return lags_; }

 private:
  void RebuildGram(std::span<const double> window);
  // Adds (sign=+1) or removes (sign=-1) the design row targeting
  // window[target] (regressors are the `lags_` preceding samples).
  void UpdateGramRow(std::span<const double> window, std::size_t target,
                     double sign);

  std::size_t lags_;
  std::size_t refit_interval_;
  std::size_t calls_since_fit_ = 0;
  std::vector<double> cached_coefficients_;  // intercept, lag1..lagp.

  // Incremental sliding-window state (DESIGN.md §7).
  std::vector<double> gram_;     // Upper triangle of X'X, (p+1)^2 row-major.
  std::vector<double> moments_;  // X'y.
  std::size_t gram_rows_ = 0;
  std::size_t slides_since_rebuild_ = 0;
  std::size_t inc_calls_since_fit_ = 0;
  std::vector<double> inc_coefficients_;
  CholeskyWorkspace solve_;
};

class SetarForecaster final : public Forecaster {
 public:
  // `max_thresholds` in {1, 2}: the series is split into up to
  // max_thresholds + 1 regimes on the previous value, each with its own AR
  // fit. Thresholds are chosen from history quantiles by in-sample SSE.
  explicit SetarForecaster(std::size_t lags = 10, std::size_t max_thresholds = 2,
                           std::size_t refit_interval = 1);

  std::string_view name() const override { return "setar"; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override;
  std::unique_ptr<Forecaster> Clone() const override;

 private:
  // Re-estimates thresholds and per-regime coefficients from `history`;
  // leaves both empty when no candidate can fit every regime.
  void Refit(std::span<const double> history);

  std::size_t lags_;
  std::size_t max_thresholds_;
  std::size_t refit_interval_;
  std::size_t calls_since_fit_ = 0;
  std::vector<double> cached_thresholds_;
  std::vector<std::vector<double>> cached_regimes_;  // Coefficients per regime.
};

}  // namespace femux

#endif  // SRC_FORECAST_AR_H_
