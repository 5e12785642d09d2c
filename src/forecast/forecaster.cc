#include "src/forecast/forecaster.h"

#include <algorithm>
#include <cmath>

namespace femux {

const char* StreamErrorName(StreamError error) {
  switch (error) {
    case StreamError::kNone:
      return "none";
    case StreamError::kNonFiniteInput:
      return "non_finite_input";
    case StreamError::kCountRegressed:
      return "count_regressed";
  }
  return "unknown";
}

double ForecastOne(Forecaster& forecaster, std::span<const double> history) {
  const auto out = forecaster.Forecast(history, 1);
  return out.empty() ? 0.0 : out.front();
}

std::vector<double> RollingForecast(Forecaster& forecaster,
                                    std::span<const double> series,
                                    std::size_t history_len, std::size_t warmup) {
  std::vector<double> predictions(series.size(), 0.0);
  IncrementalSession session;
  for (std::size_t t = warmup; t < series.size(); ++t) {
    // The session windows the prefix to the last history_len samples (or
    // the forecaster's preferred history) and feeds one-sample deltas to
    // forecasters that maintain sliding-window state.
    predictions[t] = session.ForecastOne(forecaster, series.subspan(0, t), history_len);
  }
  return predictions;
}

double IncrementalSession::ForecastOne(Forecaster& forecaster,
                                       std::span<const double> history,
                                       std::size_t window_hint) {
  const std::size_t window = std::max(window_hint, forecaster.preferred_history());
  const std::span<const double> windowed =
      history.size() > window ? history.last(window) : history;
  if (!forecaster.SupportsIncremental() || history.empty()) {
    seeded_ = false;
    return femux::ForecastOne(forecaster, windowed);
  }
  const bool contiguous =
      seeded_ && bound_ == &forecaster && window_ == window &&
      history.size() == last_size_ + 1 &&
      (last_size_ == 0 || history[last_size_ - 1] == last_back_);
  if (contiguous) {
    forecaster.ObserveAppend(history.back());
  } else {
    forecaster.BeginWindow(windowed, window);
    bound_ = &forecaster;
    window_ = window;
    seeded_ = true;
  }
  last_size_ = history.size();
  last_back_ = history.back();
  return forecaster.ForecastNext();
}

double IncrementalSession::ForecastStreamed(Forecaster& forecaster,
                                            std::span<const double> window,
                                            std::size_t total_observed,
                                            std::size_t window_hint) {
  const std::size_t window_len =
      std::max(window_hint, forecaster.preferred_history());
  const std::span<const double> windowed =
      window.size() > window_len ? window.last(window_len) : window;
  if (!forecaster.SupportsIncremental() || window.empty()) {
    // Every call reaches Forecast(): batch forecasters may count calls
    // (SETAR's refit stride), so nothing is cached here. The stream is
    // still bound, so the checked entry points can see a count regression.
    Bind(forecaster, window_len, total_observed);
    seeded_ = false;
    return femux::ForecastOne(forecaster, windowed);
  }
  const bool bound_here =
      seeded_ && bound_ == &forecaster && window_ == window_len;
  // Same epoch as the previous call (or a SeedStreamed): the window state
  // already includes every observed sample. Return the cached prediction
  // when one exists — ForecastNext() may advance refit counters, so it must
  // run at most once per observed count. After a bare SeedStreamed no
  // prediction exists yet; forecast once and cache it.
  if (bound_here && total_observed == last_size_ && window.back() == last_back_) {
    if (!has_last_pred_) {
      last_pred_ = forecaster.ForecastNext();
      has_last_pred_ = true;
    }
    return last_pred_;
  }
  // The prev-back probe mirrors ForecastOne's history[last_size_ - 1] check:
  // the previous epoch's newest sample is the ring's second-newest now.
  const bool contiguous =
      bound_here && total_observed == last_size_ + 1 &&
      (last_size_ == 0 ||
       (window.size() >= 2 && window[window.size() - 2] == last_back_));
  if (contiguous) {
    forecaster.ObserveAppend(window.back());
  } else {
    forecaster.BeginWindow(windowed, window_len);
    seeded_ = true;
  }
  Bind(forecaster, window_len, total_observed);
  last_back_ = window.back();
  last_pred_ = forecaster.ForecastNext();
  has_last_pred_ = true;
  return last_pred_;
}

void IncrementalSession::SeedStreamed(Forecaster& forecaster,
                                      std::span<const double> window,
                                      std::size_t total_observed,
                                      std::size_t window_hint) {
  const std::size_t window_len =
      std::max(window_hint, forecaster.preferred_history());
  Bind(forecaster, window_len, total_observed);
  if (!forecaster.SupportsIncremental() || window.empty()) {
    seeded_ = false;
    return;
  }
  const std::span<const double> windowed =
      window.size() > window_len ? window.last(window_len) : window;
  forecaster.BeginWindow(windowed, window_len);
  seeded_ = true;
  last_back_ = window.back();
  has_last_pred_ = false;  // The next ForecastStreamed forecasts once.
}

void IncrementalSession::Bind(const Forecaster& forecaster,
                              std::size_t window_len,
                              std::size_t total_observed) {
  bound_ = &forecaster;
  window_ = window_len;
  last_size_ = total_observed;
}

bool IncrementalSession::Regressed(const Forecaster& forecaster,
                                   std::size_t window_hint,
                                   std::size_t total_observed) const {
  // "Time went backwards" is only meaningful for the stream this session is
  // already bound to; a different forecaster or window configuration is a
  // fresh stream and re-seeds like the unchecked path.
  const std::size_t window_len =
      std::max(window_hint, forecaster.preferred_history());
  return bound_ == &forecaster && window_ == window_len &&
         total_observed < last_size_;
}

namespace {

bool AllFinite(std::span<const double> window) {
  for (double v : window) {
    if (!std::isfinite(v)) {
      return false;
    }
  }
  return true;
}

}  // namespace

StreamedForecast IncrementalSession::ForecastStreamedChecked(
    Forecaster& forecaster, std::span<const double> window,
    std::size_t total_observed, std::size_t window_hint) {
  StreamedForecast out;
  if (!AllFinite(window)) {
    out.error = StreamError::kNonFiniteInput;
    return out;
  }
  if (Regressed(forecaster, window_hint, total_observed)) {
    out.error = StreamError::kCountRegressed;
    return out;
  }
  out.value = ForecastStreamed(forecaster, window, total_observed, window_hint);
  return out;
}

StreamError IncrementalSession::SeedStreamedChecked(Forecaster& forecaster,
                                                    std::span<const double> window,
                                                    std::size_t total_observed,
                                                    std::size_t window_hint) {
  if (!AllFinite(window)) {
    return StreamError::kNonFiniteInput;
  }
  if (Regressed(forecaster, window_hint, total_observed)) {
    return StreamError::kCountRegressed;
  }
  SeedStreamed(forecaster, window, total_observed, window_hint);
  return StreamError::kNone;
}

double ClampPrediction(double value) {
  // Guard against NaN propagating out of ill-conditioned fits.
  if (!(value > 0.0)) {
    return 0.0;
  }
  return std::min(value, 1e9);
}

}  // namespace femux
