// The ascending order of a forecaster's window, kept under the stream's
// slides (DESIGN.md §7). A slide erases the departing sample and inserts the
// arriving one: a memmove of the window in place of a sort. Markov reads
// its quantile bounds from it; SETAR reads its quartiles, its extrema and
// its 3x-peak bound.
#ifndef SRC_FORECAST_SORTED_WINDOW_H_
#define SRC_FORECAST_SORTED_WINDOW_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace femux {

class SortedWindow {
 public:
  // Sorts `window`, reserving `capacity` so that slides never allocate.
  void Assign(std::span<const double> window, std::size_t capacity) {
    sorted_.reserve(std::max(capacity, window.size()));
    sorted_.assign(window.begin(), window.end());
    std::sort(sorted_.begin(), sorted_.end());
  }

  // Mirrors ObserveAppend(previous, window): drops previous.front() when the
  // window was full, then inserts window.back().
  void Slide(std::span<const double> previous, std::span<const double> window) {
    if (window.size() == previous.size()) {
      sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(), previous.front()));
    }
    const double value = window.back();
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), value), value);
  }

  std::span<const double> values() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

}  // namespace femux

#endif  // SRC_FORECAST_SORTED_WINDOW_H_
