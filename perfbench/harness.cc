#include "perfbench/harness.h"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <utility>

#include "bench/common.h"
#include "src/core/serialize.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double PeakRssMb() {
  return static_cast<double>(femux::PeakRssBytes()) / (1024.0 * 1024.0);
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t role) {
  // SplitMix64 finalizer over (seed, role).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (role + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Result::Add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::Check(bool ok, const std::string& what) {
  Note(std::string("check ") + (ok ? "PASS " : "FAIL ") + what);
  correct_ = correct_ && ok;
}

void Result::Note(const std::string& line) { notes_.push_back(line); }

void Result::CountAttempts(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

double MedianSetupSeconds(int reps, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    setup();
    seconds.push_back(SecondsSince(start));
  }
  return Median(seconds);
}

void RepeatFor(double seconds, int min_passes, const std::function<void()>& pass) {
  const auto start = Clock::now();
  for (int done = 0; done < min_passes || SecondsSince(start) < seconds; ++done) {
    pass();
  }
}

std::uint64_t Fnv1a(const std::string& bytes, std::uint64_t hash) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

bool SameBits(const femux::SimMetrics& a, const femux::SimMetrics& b) {
  const auto fields = [](const femux::SimMetrics& m) {
    return std::array<double, 8>{m.invocations,        m.cold_starts,
                                 m.cold_invocations,   m.cold_start_seconds,
                                 m.wasted_gb_seconds,  m.allocated_gb_seconds,
                                 m.execution_seconds,  m.service_seconds};
  };
  const auto fa = fields(a);
  const auto fb = fields(b);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(fa[i]) != std::bit_cast<std::uint64_t>(fb[i])) {
      return false;
    }
  }
  return true;
}

std::string ModelBytes(const femux::FemuxModel& model) {
  std::ostringstream out;
  femux::SaveModel(model, out);
  return out.str();
}

}  // namespace perfbench
