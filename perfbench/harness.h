// Shared plumbing of the end-to-end benchmark: run configuration, timing
// helpers, and the result record every workload fills in.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/model.h"
#include "src/sim/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double MicrosBetween(Clock::time_point start, Clock::time_point end);

// Linear-interpolated percentile (p in [0, 1]) of an unsorted sample; 0 for
// an empty one.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

double PeakRssMb();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t threads = 1;
  // Directory inside the checkout for files a workload must write (daemon
  // checkpoints); run.py creates it and removes it when the run ends.
  std::string scratch_dir;
};

// Derives an independent stream for one role (a fleet's order, the daemon's
// tenants) from the run's --seed, so no two roles share a stream.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t role);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Records an output check; any failure makes the whole run incorrect.
  void Check(bool ok, const std::string& what);
  // A free-form line printed before the result (sample counts, labels).
  void Note(const std::string& line);

  void CountAttempts(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

// Runs `setup` `reps` times and returns the median wall time in seconds.
// Workloads keep the product of the last repetition and check that every
// repetition produced the same one.
double MedianSetupSeconds(int reps, const std::function<void()>& setup);

// Calls `pass` until `seconds` have elapsed and at least `min_passes` ran.
void RepeatFor(double seconds, int min_passes, const std::function<void()>& pass);

// FNV-1a 64 over a byte string: the digest used by the output checks.
std::uint64_t Fnv1a(const std::string& bytes, std::uint64_t hash = 1469598103934665603ull);

// Bit-for-bit equality of every SimMetrics field.
bool SameBits(const femux::SimMetrics& a, const femux::SimMetrics& b);

// The model as SaveModel writes it.
std::string ModelBytes(const femux::FemuxModel& model);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
