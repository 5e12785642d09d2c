#include "src/forecast/simple.h"

#include <algorithm>

namespace femux {
namespace {

// Mean of the last min(window, history.size()) samples, 0 on no history.
double MeanOfLast(std::span<const double> history, std::size_t window) {
  const std::span<const double> tail = history.last(std::min(window, history.size()));
  double sum = 0.0;
  for (double v : tail) {
    sum += v;
  }
  return ClampPrediction(tail.empty() ? 0.0 : sum / static_cast<double>(tail.size()));
}

// Max of the last min(window, history.size()) samples and 0.
double MaxOfLast(std::span<const double> history, std::size_t window) {
  double value = 0.0;
  for (double v : history.last(std::min(window, history.size()))) {
    value = std::max(value, v);
  }
  return ClampPrediction(value);
}

}  // namespace

MovingAverageForecaster::MovingAverageForecaster(std::size_t window)
    : window_(window == 0 ? 1 : window),
      name_("moving_average_" + std::to_string(window_)) {}

std::vector<double> MovingAverageForecaster::Forecast(std::span<const double> history,
                                                      std::size_t horizon) {
  return std::vector<double>(horizon, MeanOfLast(history, window_));
}

std::unique_ptr<Forecaster> MovingAverageForecaster::Clone() const {
  return std::make_unique<MovingAverageForecaster>(window_);
}

double MovingAverageForecaster::ForecastNext(std::span<const double> window) {
  return MeanOfLast(window, window_);
}

KeepAliveForecaster::KeepAliveForecaster(std::size_t window_minutes)
    : window_(window_minutes == 0 ? 1 : window_minutes),
      name_("keep_alive_" + std::to_string(window_) + "min") {}

std::vector<double> KeepAliveForecaster::Forecast(std::span<const double> history,
                                                  std::size_t horizon) {
  return std::vector<double>(horizon, MaxOfLast(history, window_));
}

std::unique_ptr<Forecaster> KeepAliveForecaster::Clone() const {
  return std::make_unique<KeepAliveForecaster>(window_);
}

double KeepAliveForecaster::ForecastNext(std::span<const double> window) {
  return MaxOfLast(window, window_);
}

}  // namespace femux
