// Traffic forecaster interface (§4.3.3).
//
// A forecaster receives the recent average-concurrency history of one
// application (the Knative data representation, §4.3.1) and predicts the
// next `horizon` samples. FeMux multiplexes among implementations of this
// interface; providers can register their own.
//
// Implementations must: (1) be robust to degenerate histories (all zeros,
// constant values, very short windows), (2) return non-negative predictions,
// and (3) be cheap — FeMux's design budget is single-digit milliseconds per
// forecast (§5.2).
//
// Serving paths hold each app's series ring, observed count and forecaster
// state in one ForecastStream (below), which drives every forecaster
// through one incremental protocol.
#ifndef SRC_FORECAST_FORECASTER_H_
#define SRC_FORECAST_FORECASTER_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace femux {

// Default window sizes from the paper: two hours of history, one minute of
// horizon, both provider-adjustable.
inline constexpr std::size_t kDefaultHistoryMinutes = 120;
inline constexpr std::size_t kDefaultHorizonMinutes = 1;

class Forecaster {
 public:
  virtual ~Forecaster() = default;

  virtual std::string_view name() const = 0;

  // Predicts the next `horizon` values following `history`. `history` is
  // ordered oldest-first. Returns `horizon` non-negative values.
  virtual std::vector<double> Forecast(std::span<const double> history,
                                       std::size_t horizon) = 0;

  // Fresh instance with the same configuration (forecasters may keep
  // per-application state, so each application gets its own clone).
  virtual std::unique_ptr<Forecaster> Clone() const = 0;

  // History window (samples) this forecaster wants. Pattern-based models
  // need to see whole periods (e.g. FFT wants multiple days at minute
  // granularity); local models are happier with the 2-hour default.
  virtual std::size_t preferred_history() const { return kDefaultHistoryMinutes; }

  // ---- Incremental sliding-window protocol (DESIGN.md §7) ----
  //
  // The serving loop slides each application's history window by exactly one
  // sample per scaling epoch. A forecaster may maintain sliding-window
  // sufficient statistics (Gram matrices, transition counts, sliding-DFT
  // bins, ...) so a one-step forecast costs O(1) amortized per epoch
  // instead of a full per-call refit. ForecastNext() must agree with
  // Forecast(window, 1)[0] on the same window within the forecaster's
  // documented parity bound (bit-identical where the math preserves
  // association order, <= ~1e-9 relative where add/remove inherently
  // reassociates sums). Keep state only when it is cheaper than a sweep
  // of the window: SES, Holt, moving average and keep-alive keep none.
  // The defaults below keep none either: BeginWindow/ObserveAppend do
  // nothing and ForecastNext() is Forecast(window, 1)[0], so a forecaster
  // that implements only Forecast() (SETAR, a provider's own) is served
  // once per observed sample.
  //
  // Callers drive the protocol through ForecastStream below, which owns the
  // window and hands it to every call: `window` is the last
  // min(observed, capacity) samples, oldest first, with capacity =
  // max(window hint, preferred_history()). The spans point into the
  // stream's ring, which compacts, so they are valid only during the call
  // and a forecaster keeps no copy of the window: only the state the window
  // does not give it.

  // Discards incremental state and re-seeds it from `window`. Called on
  // first use and whenever more than one sample arrived since the last
  // call. `window.size() == capacity` means the window is already full.
  virtual void BeginWindow(std::span<const double> window, std::size_t capacity) {
    (void)window;
    (void)capacity;
  }

  // Slides the window forward by one sample. `previous` is the window of
  // the last BeginWindow or ObserveAppend; `window` is `previous` plus the
  // newest sample, without previous.front() once previous was at capacity
  // (then the two have the same size).
  virtual void ObserveAppend(std::span<const double> previous,
                             std::span<const double> window) {
    (void)previous;
    (void)window;
  }

  // One-step forecast from the current state and `window`, the window of
  // the last BeginWindow or ObserveAppend. Defaults to
  // Forecast(window, 1)[0] (0 when that is empty).
  virtual double ForecastNext(std::span<const double> window);

  // ---- Opaque learned state (opt-in; DESIGN.md §15) ----
  //
  // The closed-form forecasters' incremental state is a fold of the window
  // and is always reconstructible from the retained series ring, so nothing
  // beyond the ring ever needs to persist. Learned forecasters widen that
  // contract: their trained parameters are NOT derivable from the ring, so
  // they expose them as an opaque serializable blob. The blob must be a
  // single printable token — no whitespace, '%' only as produced by the
  // forecaster itself — so it embeds directly in the daemon's checksummed
  // checkpoint records and the model text format. Restoring the blob into a
  // fresh instance and re-seeding the window from the ring must reproduce
  // the original instance's decisions within the forecaster's documented
  // incremental parity bound.

  // True when Save/LoadOpaqueState are implemented.
  virtual bool HasOpaqueState() const { return false; }

  // Serializes trained parameters (never window state — that re-seeds from
  // the ring). Must round-trip bit-exactly through LoadOpaqueState.
  virtual std::string SaveOpaqueState() const { return {}; }

  // Restores parameters saved by SaveOpaqueState on a compatibly configured
  // instance. Returns false (leaving the instance unchanged) on a malformed
  // or incompatible blob.
  virtual bool LoadOpaqueState(std::string_view blob) {
    (void)blob;
    return false;
  }
};

// One application's forecasting state: its bounded series ring, the count
// of samples observed so far and the incremental state of the forecaster
// bound to it. Every serving path (FemuxPolicy, ForecasterPolicy,
// RollingForecast, the daemon's per-app state) drives the incremental
// protocol through this one class (DESIGN.md §7).
//
// The stream appends every sample itself, so it knows how many samples
// arrived since the forecaster last advanced: exactly one is an
// ObserveAppend, none replays the cached prediction, and more than one (or
// any call after Reset) re-seeds the window with BeginWindow. So the
// forecaster runs at most once per observed count: a forecaster that
// paces its refits by counting calls (SETAR) counts samples.
//
// Exception rule: the record of the forecaster's state is cleared before
// any call into the forecaster and set again only after the call returns,
// so after a throw the next Forecast() re-seeds from the ring and equals
// what a fresh stream would forecast at that count.
//
// The stream holds a non-owning pointer to the bound forecaster; its owner
// keeps it alive and rebinds after replacing it.
class ForecastStream {
 public:
  // A bound forecaster sees the last max(window_hint, its
  // preferred_history()) samples, and Bind grows the ring to retain them.
  // `min_capacity` retains more from the start: an owner that switches
  // among several forecasters passes the largest window of the set, so a
  // switch finds a full ring. Samples appended before the first Bind are
  // retained up to max(window_hint, min_capacity).
  explicit ForecastStream(std::size_t window_hint = kDefaultHistoryMinutes,
                          std::size_t min_capacity = 0);

  // Binds `forecaster` and seeds it from the ring at once (the warm
  // handoff at a block switch).
  void Bind(Forecaster& forecaster);

  // Records one newly observed sample.
  void Append(double value);

  // Replaces the ring with as much of the end of `tail` as it retains and
  // the count with `observed` (at least tail.size()), and re-seeds the
  // bound forecaster from it at once. On restore, Bind (after
  // LoadOpaqueState) comes first, so the ring is sized for the restored
  // forecaster.
  void Restore(std::span<const double> tail, std::size_t observed);

  // For callers that hold the whole series: appends when `history` extends
  // the stream by exactly one sample and the previous sample matches, and
  // restores from its tail otherwise.
  void Sync(std::span<const double> history);

  // One-step forecast from the bound forecaster; requires Bind().
  double Forecast();

  // Forgets the forecaster's state (ring and count stay); the next
  // Forecast() re-seeds from the ring.
  void Reset() {
    seeded_ = false;
    has_prediction_ = false;
  }

  // The retained tail, oldest first: the last min(observed, capacity)
  // samples.
  std::span<const double> Window() const;
  std::size_t observed() const { return observed_; }

 private:
  // The bound forecaster's slice of Window().
  std::span<const double> ForecasterWindow() const;
  // ForecasterWindow() before the newest sample: what the forecaster saw
  // one sample ago. The ring always retains it (it compacts to capacity,
  // and then appends).
  std::span<const double> PreviousWindow() const;
  // Re-seeds the bound forecaster from the ring (exception rule above).
  void Seed();

  // Grows to 2 x capacity_, then drops its stale front half (amortized
  // O(1), reserved by Bind, so appends after it never allocate).
  std::vector<double> ring_;
  std::size_t capacity_;
  std::size_t window_hint_;
  Forecaster* forecaster_ = nullptr;
  std::size_t window_ = 0;  // Effective window of the bound forecaster.
  std::size_t observed_ = 0;
  // When seeded_, the forecaster's incremental state covers the first
  // seen_ samples; has_prediction_ caches ForecastNext() at that count.
  bool seeded_ = false;
  std::size_t seen_ = 0;
  bool has_prediction_ = false;
  double prediction_ = 0.0;
};

// Convenience: one-step forecast.
double ForecastOne(Forecaster& forecaster, std::span<const double> history);

// Rolling one-step-ahead forecasts over a full series: for each index
// t >= warmup, predicts series[t] from the preceding `history_len` samples
// (fewer at the start). out[t] is the prediction for series[t]; entries
// before `warmup` are zero. This is the offline "simulated forecast"
// the paper uses for training and evaluation.
std::vector<double> RollingForecast(Forecaster& forecaster,
                                    std::span<const double> series,
                                    std::size_t history_len = kDefaultHistoryMinutes,
                                    std::size_t warmup = 10);

// Clamps a prediction to the physically meaningful range.
double ClampPrediction(double value);

}  // namespace femux

#endif  // SRC_FORECAST_FORECASTER_H_
