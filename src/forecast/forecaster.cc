#include "src/forecast/forecaster.h"

#include <algorithm>
#include <cstddef>

namespace femux {

double Forecaster::ForecastNext(std::span<const double> window) {
  return ForecastOne(*this, window);
}

double ForecastOne(Forecaster& forecaster, std::span<const double> history) {
  const auto out = forecaster.Forecast(history, 1);
  return out.empty() ? 0.0 : out.front();
}

std::vector<double> RollingForecast(Forecaster& forecaster,
                                    std::span<const double> series,
                                    std::size_t history_len, std::size_t warmup) {
  std::vector<double> predictions(series.size(), 0.0);
  ForecastStream stream(history_len);
  stream.Bind(forecaster);
  for (std::size_t t = 0; t < series.size(); ++t) {
    if (t >= warmup) {
      predictions[t] = stream.Forecast();
    }
    stream.Append(series[t]);
  }
  return predictions;
}

ForecastStream::ForecastStream(std::size_t window_hint, std::size_t min_capacity)
    : capacity_(std::max(window_hint, min_capacity)), window_hint_(window_hint) {}

std::span<const double> ForecastStream::Window() const {
  return std::span<const double>(ring_).last(std::min(ring_.size(), capacity_));
}

std::span<const double> ForecastStream::ForecasterWindow() const {
  const std::span<const double> window = Window();
  return window.last(std::min(window.size(), window_));
}

std::span<const double> ForecastStream::PreviousWindow() const {
  const std::span<const double> before =
      std::span<const double>(ring_).first(ring_.size() - 1);
  return before.last(std::min(before.size(), window_));
}

void ForecastStream::Bind(Forecaster& forecaster) {
  forecaster_ = &forecaster;
  window_ = std::max(window_hint_, forecaster.preferred_history());
  capacity_ = std::max(capacity_, window_);
  ring_.reserve(2 * capacity_);
  Seed();
}

void ForecastStream::Seed() {
  Reset();
  if (forecaster_ == nullptr) {
    return;
  }
  const std::span<const double> window = ForecasterWindow();
  if (!window.empty()) {
    forecaster_->BeginWindow(window, window_);
    seeded_ = true;
    seen_ = observed_;
  }
}

void ForecastStream::Append(double value) {
  if (ring_.size() >= 2 * capacity_) {
    ring_.erase(ring_.begin(),
                ring_.end() - static_cast<std::ptrdiff_t>(capacity_));
  }
  ring_.push_back(value);
  ++observed_;
}

void ForecastStream::Restore(std::span<const double> tail, std::size_t observed) {
  tail = tail.last(std::min(tail.size(), capacity_));
  ring_.assign(tail.begin(), tail.end());
  observed_ = observed;
  Seed();
}

void ForecastStream::Sync(std::span<const double> history) {
  const bool extends =
      history.size() == observed_ + 1 &&
      (observed_ == 0 || (!ring_.empty() && history[observed_ - 1] == ring_.back()));
  if (extends) {
    Append(history.back());
  } else {
    Restore(history, history.size());
  }
}

double ForecastStream::Forecast() {
  const std::span<const double> window = ForecasterWindow();
  if (window.empty()) {
    return ForecastOne(*forecaster_, window);
  }
  if (seeded_ && seen_ == observed_ && has_prediction_) {
    return prediction_;
  }
  const bool current = seeded_ && seen_ == observed_;
  const bool one_new = seeded_ && seen_ + 1 == observed_;
  // Cleared before calling in, so a throw leaves the stream to re-seed.
  Reset();
  if (one_new) {
    forecaster_->ObserveAppend(PreviousWindow(), window);
  } else if (!current) {
    forecaster_->BeginWindow(window, window_);
  }
  prediction_ = forecaster_->ForecastNext(window);
  seeded_ = true;
  seen_ = observed_;
  has_prediction_ = true;
  return prediction_;
}

double ClampPrediction(double value) {
  // Guard against NaN propagating out of ill-conditioned fits.
  if (!(value > 0.0)) {
    return 0.0;
  }
  return std::min(value, 1e9);
}

}  // namespace femux
