// FFT harmonic forecaster (IceBreaker-style; Joosen et al. found FFT beats
// most ML models on serverless traffic). Extracts the top-k harmonics of
// the history window and extrapolates the harmonic model into the future.
//
// Unlike the local forecasters, FFT needs to observe whole pattern periods:
// its preferred history is two days of minutes so daily cycles land inside
// the window. Because long-window spectra change slowly, the harmonic model
// is re-fitted only every `refit_interval` calls and phase-advanced in
// between.
#ifndef SRC_FORECAST_FFT_FORECASTER_H_
#define SRC_FORECAST_FFT_FORECASTER_H_

#include <array>
#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/forecast/forecaster.h"
#include "src/stats/fft.h"

namespace femux {

class FftForecaster final : public Forecaster {
 public:
  explicit FftForecaster(std::size_t harmonics = 10, std::size_t refit_interval = 1,
                         std::size_t history_minutes = 2 * 1440);

  std::string_view name() const override { return "fft"; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override;
  std::unique_ptr<Forecaster> Clone() const override;
  std::size_t preferred_history() const override { return history_minutes_; }

  // Incremental protocol (DESIGN.md §9): once the window is at capacity,
  // its DFT bins are maintained by sliding-DFT updates — one complex
  // multiply-add per bin per slide, with the departing sample read from
  // the previous window — so a refit is a top-k *re-selection* over the
  // maintained bins instead of a full transform, and calls between refits
  // phase-advance the cached model exactly like the batch path. A slide
  // only records its delta; the bins take the pending slides in one
  // bin-major batch when the batch is full or a refit needs them, which
  // gives them the same bits as sliding one at a time. While the window
  // grows, a refit transforms the stream's window itself.
  // Selection-boundary near-ties snap to an exact respectrum, and the bins
  // are rebuilt from the window every kRebuildSlides slides to bound
  // rounding drift, keeping parity with Forecast(window, 1) within 1e-9
  // scale-relative.
  void BeginWindow(std::span<const double> window, std::size_t capacity) override;
  void ObserveAppend(std::span<const double> previous,
                     std::span<const double> window) override;
  double ForecastNext(std::span<const double> window) override;

  std::size_t harmonics() const { return harmonics_; }

 private:
  // Drift bound for the maintained bins: rebuilding every 512 slides keeps
  // the accumulated sliding-DFT rounding ~1e-13 relative, two orders below
  // the near-tie snap threshold.
  static constexpr std::size_t kRebuildSlides = 512;
  // Slides held back before the bins take them in one batch.
  static constexpr std::size_t kMaxPendingSlides = 32;

  // Recomputes the maintained half-spectrum from `window`; pending slides
  // are dropped, since the window already holds them. Only a rebuild makes
  // the bins valid, and slides are recorded only while they are, so no
  // pending slide outlives the bins it was meant for.
  void RebuildBins(std::span<const double> window);
  // Applies the pending slides to the bins.
  void FlushSlides();
  // Refits the cached incremental model (bin re-selection once the window
  // is full, a transform of it while it grows).
  void RefitIncremental(std::span<const double> window);

  std::size_t harmonics_;
  std::size_t refit_interval_;
  std::size_t history_minutes_;

  // Batch-path cache (Forecast()).
  std::vector<Harmonic> cached_model_;
  std::size_t cached_length_ = 0;
  std::size_t calls_since_fit_ = 0;

  // Incremental-path state.
  std::size_t capacity_ = 0;  // Window size once full (from BeginWindow).
  std::vector<std::complex<double>> bins_;  // Maintained bins 0..n/2.
  // Slide twiddles of the bins' window length, shared with its FFT plan and
  // every forecaster at that length; refetched at each rebuild, so after a
  // cache eviction the holders move to the new plan's table.
  std::shared_ptr<const std::vector<std::complex<double>>> twiddles_;
  bool bins_valid_ = false;
  // Slides since the last rebuild, pending ones included.
  std::size_t slides_since_rebuild_ = 0;
  // Deltas x_new - x_old of the slides the bins have not taken yet.
  std::array<double, kMaxPendingSlides> pending_deltas_{};
  std::size_t pending_slides_ = 0;
  std::vector<Harmonic> inc_model_;
  std::size_t inc_length_ = 0;
  std::size_t inc_calls_since_fit_ = 0;
};

}  // namespace femux

#endif  // SRC_FORECAST_FFT_FORECASTER_H_
