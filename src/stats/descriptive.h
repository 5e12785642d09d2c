// Descriptive statistics: moments, quantiles, coefficient of variation, and
// autocorrelation. These back both the characterization benches (Figs 2-7)
// and FeMux's feature extraction.
#ifndef SRC_STATS_DESCRIPTIVE_H_
#define SRC_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <span>
#include <vector>

namespace femux {

double Mean(std::span<const double> values);
// Sample variance (n-1 denominator). Returns 0 for fewer than two values.
double Variance(std::span<const double> values);
// Variance(values) == 0.0, given the extrema lo and hi of `values`. Skips
// the sum when hi - lo > 1e-100: some deviation from the mean is then at
// least 5e-101, whose square is a normal double, so the variance is
// nonzero. Closer extrema can still hide a variance that underflows to 0
// (say, 1e-200 next to 2e-200), so the sum decides those.
bool VarianceIsZero(std::span<const double> values, double lo, double hi);
double StdDev(std::span<const double> values);
// Coefficient of variation sigma/mu. Returns 0 when the mean is zero.
double CoefficientOfVariation(std::span<const double> values);

// Linear-interpolated quantile of an unsorted sample, q in [0, 1].
// Returns 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
// Quantile of an already-sorted (ascending) sample; does not copy.
double QuantileSorted(std::span<const double> sorted, double q);
double Median(std::vector<double> values);

// Fraction of values strictly below `threshold`. Returns 0 for empty input.
double FractionBelow(std::span<const double> values, double threshold);

// Lag-k sample autocorrelation. Returns 0 if variance is zero or the series
// is shorter than k + 2.
double Autocorrelation(std::span<const double> values, std::size_t lag);

// First differences: out[i] = in[i+1] - in[i].
std::vector<double> Diff(std::span<const double> values);

// Streaming mean/variance/min/max accumulator (Welford).
class RunningStats {
 public:
  void Add(double x);
  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  // Sample variance.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace femux

#endif  // SRC_STATS_DESCRIPTIVE_H_
