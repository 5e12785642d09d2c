// Empirical-CDF helper for the characterization benches (Figs 2 and 3).
#ifndef SRC_STATS_HISTOGRAM_H_
#define SRC_STATS_HISTOGRAM_H_

#include <cstddef>
#include <vector>

namespace femux {

// Point on an empirical CDF.
struct CdfPoint {
  double value = 0.0;
  double fraction = 0.0;  // P(X <= value)
};

// Builds an empirical CDF sampled at `points` evenly spaced fractions.
// Input need not be sorted.
std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values, std::size_t points = 100);

}  // namespace femux

#endif  // SRC_STATS_HISTOGRAM_H_
