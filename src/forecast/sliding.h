// Sliding-window sample buffer for the incremental forecasting protocol
// (serving hot path, DESIGN.md §7).
//
// The serving loop advances each application's history by exactly one sample
// per scaling epoch, so a forecaster that keeps sufficient statistics of the
// current window can answer without refitting over the full window. AR,
// Markov, FFT, linear_state and the LSTM keep their window here:
//
//  - WindowBuffer: fixed-capacity FIFO ring of samples with exact O(1)
//    amortized windowed min/max (monotonic deques). Min/max are comparison-
//    only, so they are bit-identical to a scan over the window.
//
// SES and Holt keep no window of their own: they sweep the caller's window
// on every call (src/forecast/smoothing.h).
#ifndef SRC_FORECAST_SLIDING_H_
#define SRC_FORECAST_SLIDING_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

namespace femux {

// Fixed-capacity FIFO window of samples, oldest-first indexing. Append
// beyond capacity evicts the oldest sample. Monotonic deques provide the
// exact windowed min/max without rescanning.
class WindowBuffer {
 public:
  void Reset(std::span<const double> init, std::size_t capacity) {
    capacity_ = capacity == 0 ? 1 : capacity;
    data_.assign(init.begin(), init.end());
    if (data_.size() > capacity_) {
      data_.erase(data_.begin(),
                  data_.begin() + static_cast<std::ptrdiff_t>(data_.size() - capacity_));
    }
    head_ = 0;
    next_index_ = data_.size();
    max_.clear();
    min_.clear();
    for (std::size_t i = 0; i < data_.size(); ++i) {
      PushDeques(i, data_[i]);
    }
  }

  // Appends `value`; when full, evicts the oldest sample first and reports
  // it through `*evicted`. Returns true when an eviction happened.
  bool Append(double value, double* evicted) {
    bool evicted_any = false;
    if (data_.size() == capacity_ && capacity_ > 0 && !data_.empty()) {
      const double old = data_[head_];
      if (evicted != nullptr) {
        *evicted = old;
      }
      evicted_any = true;
      const std::uint64_t oldest_index = next_index_ - data_.size();
      if (!max_.empty() && max_.front().first == oldest_index) {
        max_.pop_front();
      }
      if (!min_.empty() && min_.front().first == oldest_index) {
        min_.pop_front();
      }
      data_[head_] = value;
      head_ = (head_ + 1) % data_.size();
    } else {
      // Growing phase: physical layout stays linear (head_ == 0).
      data_.push_back(value);
    }
    PushDeques(next_index_, value);
    ++next_index_;
    return evicted_any;
  }

  std::size_t size() const { return data_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return data_.size() == capacity_; }

  // Oldest-first access.
  double operator[](std::size_t i) const { return data_[(head_ + i) % data_.size()]; }
  double front() const { return (*this)[0]; }
  double back() const { return (*this)[data_.size() - 1]; }

  // Exact windowed extrema (undefined on an empty window).
  double Max() const { return max_.front().second; }
  double Min() const { return min_.front().second; }

  // Materializes the window oldest-first into `out` (reused scratch).
  void CopyTo(std::vector<double>* out) const {
    out->resize(data_.size());
    for (std::size_t i = 0; i < data_.size(); ++i) {
      (*out)[i] = (*this)[i];
    }
  }

 private:
  void PushDeques(std::uint64_t index, double value) {
    while (!max_.empty() && max_.back().second <= value) {
      max_.pop_back();
    }
    max_.emplace_back(index, value);
    while (!min_.empty() && min_.back().second >= value) {
      min_.pop_back();
    }
    min_.emplace_back(index, value);
  }

  std::size_t capacity_ = 1;
  std::vector<double> data_;
  std::size_t head_ = 0;          // Physical index of the oldest sample.
  std::uint64_t next_index_ = 0;  // Logical index of the next append.
  std::deque<std::pair<std::uint64_t, double>> max_;
  std::deque<std::pair<std::uint64_t, double>> min_;
};

}  // namespace femux

#endif  // SRC_FORECAST_SLIDING_H_
