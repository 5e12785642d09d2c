#include "src/stats/histogram.h"

#include <algorithm>

namespace femux {

std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values, std::size_t points) {
  std::vector<CdfPoint> cdf;
  if (values.empty() || points == 0) {
    return cdf;
  }
  std::sort(values.begin(), values.end());
  cdf.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double frac = static_cast<double>(i + 1) / static_cast<double>(points);
    std::size_t idx = static_cast<std::size_t>(frac * static_cast<double>(values.size()));
    idx = idx == 0 ? 0 : idx - 1;
    cdf.push_back({values[idx], frac});
  }
  return cdf;
}

}  // namespace femux
