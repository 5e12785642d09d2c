#include "src/stats/descriptive.h"

#include <algorithm>
#include <cmath>

namespace femux {

double Mean(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double Variance(std::span<const double> values) {
  if (values.size() < 2) {
    return 0.0;
  }
  const double mu = Mean(values);
  double acc = 0.0;
  for (double v : values) {
    const double d = v - mu;
    acc += d * d;
  }
  return acc / static_cast<double>(values.size() - 1);
}

bool VarianceIsZero(std::span<const double> values, double lo, double hi) {
  return !(hi - lo > 1e-100) && Variance(values) == 0.0;
}

double StdDev(std::span<const double> values) { return std::sqrt(Variance(values)); }

double CoefficientOfVariation(std::span<const double> values) {
  const double mu = Mean(values);
  if (mu == 0.0) {
    return 0.0;
  }
  return StdDev(values) / mu;
}

double QuantileSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  if (sorted.size() == 1) {
    return sorted.front();
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, q);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double FractionBelow(std::span<const double> values, double threshold) {
  if (values.empty()) {
    return 0.0;
  }
  std::size_t below = 0;
  for (double v : values) {
    if (v < threshold) {
      ++below;
    }
  }
  return static_cast<double>(below) / static_cast<double>(values.size());
}

double Autocorrelation(std::span<const double> values, std::size_t lag) {
  if (values.size() < lag + 2) {
    return 0.0;
  }
  const double mu = Mean(values);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double d = values[i] - mu;
    den += d * d;
    if (i + lag < values.size()) {
      num += d * (values[i + lag] - mu);
    }
  }
  if (den == 0.0) {
    return 0.0;
  }
  return num / den;
}

std::vector<double> Diff(std::span<const double> values) {
  if (values.size() < 2) {
    return {};
  }
  std::vector<double> out(values.size() - 1);
  for (std::size_t i = 0; i + 1 < values.size(); ++i) {
    out[i] = values[i + 1] - values[i];
  }
  return out;
}

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace femux
