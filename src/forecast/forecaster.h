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

  // ---- Incremental sliding-window protocol (opt-in; DESIGN.md §7) ----
  //
  // The serving loop slides each application's history window by exactly one
  // sample per scaling epoch. A forecaster that opts in maintains
  // sliding-window sufficient statistics (Gram matrices, transition counts,
  // sliding-DFT bins, ...) so a one-step forecast costs O(1) amortized per
  // epoch instead of a full per-call refit. ForecastNext() must agree with
  // Forecast(window, 1)[0] on the same window within the forecaster's
  // documented parity bound (bit-identical where the math preserves
  // association order, <= ~1e-9 relative where add/remove inherently
  // reassociates sums). Opt in only when the state is cheaper than a sweep
  // of the window: SES and Holt do not (DESIGN.md §7).
  //
  // Callers should drive the protocol through IncrementalSession below,
  // which handles contiguity tracking and the batch fallback.

  // True when ObserveAppend/ForecastNext are implemented.
  virtual bool SupportsIncremental() const { return false; }

  // Discards incremental state and re-seeds it from `history` (oldest
  // first; only the last `capacity` samples are kept). Called on first use
  // and whenever the caller's history jumps non-contiguously.
  virtual void BeginWindow(std::span<const double> history, std::size_t capacity) {
    (void)history;
    (void)capacity;
  }

  // Slides the window forward by one sample (evicting the oldest once the
  // window is at capacity).
  virtual void ObserveAppend(double value) { (void)value; }

  // One-step forecast from the current window state.
  virtual double ForecastNext() { return 0.0; }

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

// Typed error for the checked streamed-session entry points below. The
// unchecked entry points silently re-seed on any history discontinuity —
// correct for trusted simulator callers, but an online daemon ingesting
// pushes from the network needs to *know* when a tenant's stream went bad
// so it can count the fault and quarantine the app instead of serving a
// forecast from garbage state.
enum class StreamError {
  kNone = 0,
  // The window contains NaN/inf. No forecast is made and no session or
  // forecaster state is touched.
  kNonFiniteInput,
  // `total_observed` went backwards for the stream this session is bound
  // to (duplicate or out-of-order epoch accounting upstream). No forecast
  // is made and no session or forecaster state is touched.
  kCountRegressed,
};

const char* StreamErrorName(StreamError error);

struct StreamedForecast {
  double value = 0.0;
  StreamError error = StreamError::kNone;
  bool ok() const { return error == StreamError::kNone; }
};

// Drives a Forecaster through the incremental protocol with automatic
// fallback. Each call receives the caller's full observed history; the
// session windows it to the last `window_hint` samples (at least the
// forecaster's preferred history, matching the batch call sites) and
//  - feeds a one-sample delta when `history` extends the previously seen
//    history by exactly one sample,
//  - re-seeds the forecaster's window state when the history jumped
//    (different length delta, different series, changed window), and
//  - uses the batch Forecast() path for forecasters that don't implement
//    the protocol.
// One session drives one forecaster stream; reset with Invalidate() when
// the underlying forecaster is replaced (pointer identity alone is not a
// safe signal — a fresh forecaster may reuse a freed address).
class IncrementalSession {
 public:
  double ForecastOne(Forecaster& forecaster, std::span<const double> history,
                     std::size_t window_hint = kDefaultHistoryMinutes);

  // Streamed variants for callers that keep a bounded ring of recent
  // samples instead of the full history (FemuxPolicy's series ring). The
  // caller passes its retained tail (`window`, oldest first — it must cover
  // at least the last min(total_observed, effective window) samples) plus a
  // monotone count of samples ever observed; contiguity is tracked on that
  // count, so ring compaction is invisible. With `window` equal to the
  // tail of the full history, ForecastStreamed(f, window, n) performs
  // exactly the calls ForecastOne(f, full_history_of_size_n) would —
  // bit-identical results.
  double ForecastStreamed(Forecaster& forecaster, std::span<const double> window,
                          std::size_t total_observed,
                          std::size_t window_hint = kDefaultHistoryMinutes);

  // Eagerly re-seeds `forecaster`'s sliding-window state from `window`
  // (block-boundary warm handoff: the fresh forecaster inherits the ring
  // instead of starting cold). The next ForecastStreamed call with the same
  // `total_observed` recognizes the seeded state and forecasts from it
  // without re-seeding. For forecasters without incremental support it only
  // binds the stream (marking the session unseeded); they stay on the batch
  // path.
  void SeedStreamed(Forecaster& forecaster, std::span<const double> window,
                    std::size_t total_observed,
                    std::size_t window_hint = kDefaultHistoryMinutes);

  // Total variants of the streamed entry points: every degenerate input is
  // mapped to a StreamError instead of silently re-seeding (or, for
  // non-finite values, poisoning forecaster state). A forward gap in
  // `total_observed` (> +1) is NOT an error — the session re-seeds from the
  // window exactly like the unchecked path, since a bounded ring caller can
  // legitimately skip epochs. On any error the session and forecaster are
  // left exactly as they were. The checks hold for batch-only forecasters
  // too: every streamed call binds the stream, incremental or not.
  StreamedForecast ForecastStreamedChecked(
      Forecaster& forecaster, std::span<const double> window,
      std::size_t total_observed, std::size_t window_hint = kDefaultHistoryMinutes);
  StreamError SeedStreamedChecked(Forecaster& forecaster,
                                  std::span<const double> window,
                                  std::size_t total_observed,
                                  std::size_t window_hint = kDefaultHistoryMinutes);

  void Invalidate() {
    bound_ = nullptr;
    seeded_ = false;
    has_last_pred_ = false;
  }

 private:
  // Records the stream the last streamed call served, incremental or not.
  void Bind(const Forecaster& forecaster, std::size_t window_len,
            std::size_t total_observed);
  // True when `total_observed` went backwards on the bound stream.
  bool Regressed(const Forecaster& forecaster, std::size_t window_hint,
                 std::size_t total_observed) const;

  // The bound stream: forecaster, effective window and the total samples
  // observed at the last streamed call. Set by every streamed call, so the
  // checked entry points see a count regression whatever the protocol.
  const Forecaster* bound_ = nullptr;
  std::size_t window_ = 0;
  std::size_t last_size_ = 0;
  double last_back_ = 0.0;
  // Incremental window state seeded for the bound stream.
  bool seeded_ = false;
  // Prediction cache for replayed epochs: ForecastNext() may advance
  // forecaster-internal refit counters, so a repeat call at the same
  // observed count returns the cached value instead of re-forecasting.
  bool has_last_pred_ = false;
  double last_pred_ = 0.0;
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
