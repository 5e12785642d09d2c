#include "src/forecast/fft_forecaster.h"

#include "src/stats/simd.h"

#include <algorithm>

namespace femux {

FftForecaster::FftForecaster(std::size_t harmonics, std::size_t refit_interval,
                             std::size_t history_minutes)
    : harmonics_(std::max<std::size_t>(1, harmonics)),
      refit_interval_(std::max<std::size_t>(1, refit_interval)),
      history_minutes_(std::max<std::size_t>(8, history_minutes)) {}

std::vector<double> FftForecaster::Forecast(std::span<const double> history,
                                            std::size_t horizon) {
  if (history.size() < 8) {
    const double last = history.empty() ? 0.0 : history.back();
    return std::vector<double>(horizon, ClampPrediction(last));
  }
  // The cached model stays phase-aligned as long as the window advanced by
  // exactly one sample per call — either growing (size = fit size + calls)
  // or sliding at constant size (size = fit size). Anything else means the
  // caller jumped in time and the fit must be redone.
  const bool aligned = history.size() == cached_length_ + calls_since_fit_ ||
                       history.size() == cached_length_;
  const bool stale =
      cached_model_.empty() || calls_since_fit_ >= refit_interval_ || !aligned;
  if (stale) {
    cached_model_ = TopHarmonics(history, harmonics_);
    cached_length_ = history.size();
    calls_since_fit_ = 0;
  }
  ++calls_since_fit_;
  // Between refits the window has slid by `calls_since_fit_ - 1` samples;
  // the model's time axis is anchored at the fit window's start.
  const double base = static_cast<double>(cached_length_ + calls_since_fit_ - 1);
  std::vector<double> out;
  out.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    out.push_back(ClampPrediction(
        EvaluateHarmonics(cached_model_, base + static_cast<double>(h), cached_length_)));
  }
  return out;
}

std::unique_ptr<Forecaster> FftForecaster::Clone() const {
  return std::make_unique<FftForecaster>(harmonics_, refit_interval_, history_minutes_);
}

void FftForecaster::BeginWindow(std::span<const double> window,
                                std::size_t capacity) {
  (void)window;  // Bins and model are rebuilt lazily at the next refit.
  capacity_ = capacity;
  bins_valid_ = false;
  inc_model_.clear();
  inc_length_ = 0;
  inc_calls_since_fit_ = 0;
}

void FftForecaster::ObserveAppend(std::span<const double> previous,
                                  std::span<const double> window) {
  if (!bins_valid_) {
    return;  // Bins are (re)built lazily at the next refit.
  }
  if (window.size() != previous.size()) {
    // The window grew, so the maintained bins no longer describe a window
    // of the current size.
    bins_valid_ = false;
    return;
  }
  // Sliding DFT: dropping the oldest sample and appending the newest maps
  // each bin through X' = (X - x_old + x_new) * exp(2*pi*i*k/n). The
  // rebuild is tested first, so no slide is applied and then thrown away.
  if (++slides_since_rebuild_ >= kRebuildSlides) {
    RebuildBins(window);
    return;
  }
  pending_deltas_[pending_slides_++] = window.back() - previous.front();
  if (pending_slides_ == kMaxPendingSlides) {
    FlushSlides();
  }
}

void FftForecaster::FlushSlides() {
  simd::SlideUpdate(bins_.data(), pending_deltas_.data(), pending_slides_,
                    twiddles_->data(), bins_.size());
  pending_slides_ = 0;
}

void FftForecaster::RebuildBins(std::span<const double> window) {
  twiddles_ = GetFftPlan(window.size())->SlideTwiddles();
  RealSpectrumInto(window, &bins_);
  bins_valid_ = true;
  slides_since_rebuild_ = 0;
  pending_slides_ = 0;
}

void FftForecaster::RefitIncremental(std::span<const double> window) {
  const std::size_t n = window.size();
  if (n == capacity_) {
    if (!bins_valid_) {
      RebuildBins(window);
    } else if (pending_slides_ > 0) {
      FlushSlides();
    }
    const double excluded = SelectTopHarmonics(bins_, n, harmonics_, &inc_model_);
    // Snap near-tied selection boundaries to an exact respectrum: the
    // maintained bins carry ~1e-13 sliding drift, and if the last-selected
    // and first-excluded amplitudes are within the 1e-9 parity budget the
    // drifted ranking could pick a different bin than the batch transform
    // would. Boundaries whose excluded amplitude is negligible (idle or
    // constant windows, where every non-DC bin ties near zero) can't move
    // the forecast by more than ~k * 1e-11 and skip the snap.
    if (excluded >= 0.0 && !inc_model_.empty() && slides_since_rebuild_ > 0) {
      const double scale = std::max(1.0, inc_model_.front().amplitude);
      if (excluded > 1e-11 * scale &&
          inc_model_.back().amplitude - excluded <= 1e-9 * scale) {
        RebuildBins(window);
        SelectTopHarmonics(bins_, n, harmonics_, &inc_model_);
      }
    }
  } else {
    inc_model_ = TopHarmonics(window, harmonics_);
  }
  inc_length_ = n;
  inc_calls_since_fit_ = 0;
}

double FftForecaster::ForecastNext(std::span<const double> window) {
  const std::size_t size = window.size();
  if (size < 8) {
    return ClampPrediction(size == 0 ? 0.0 : window.back());
  }
  // Mirror of the batch staleness logic: the window advances by exactly
  // one sample per ObserveAppend, so alignment only breaks at the
  // growth-to-slide boundary (the first eviction after a fit at a shorter
  // length), where the batch path refits too.
  const bool aligned = size == inc_length_ + inc_calls_since_fit_ ||
                       size == inc_length_;
  const bool stale = inc_model_.empty() ||
                     inc_calls_since_fit_ >= refit_interval_ || !aligned;
  if (stale) {
    RefitIncremental(window);
  }
  ++inc_calls_since_fit_;
  const double base =
      static_cast<double>(inc_length_ + inc_calls_since_fit_ - 1);
  return ClampPrediction(EvaluateHarmonics(inc_model_, base, inc_length_));
}

}  // namespace femux
