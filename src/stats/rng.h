// Deterministic random number generation for trace synthesis and simulation.
//
// All stochastic components in the repository draw from this wrapper rather
// than std::random_device so that every experiment is reproducible from a
// single seed. Streams can be forked per application so that changing the
// number of generated applications does not perturb earlier ones.
#ifndef SRC_STATS_RNG_H_
#define SRC_STATS_RNG_H_

#include <cstdint>
#include <random>

namespace femux {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL)
      : base_seed_(seed), engine_(Scramble(seed)) {}

  // Forks an independent stream; used to give each synthetic application its
  // own generator keyed by (seed, stream id).
  Rng Fork(std::uint64_t stream) const;

  double Uniform(double lo = 0.0, double hi = 1.0);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);
  double Normal(double mean = 0.0, double stddev = 1.0);
  double LogNormal(double mu, double sigma);
  double Exponential(double rate);
  // Pareto (Lomax-style, xm scale, alpha shape): heavy-tailed popularity.
  double Pareto(double xm, double alpha);
  std::int64_t Poisson(double mean);
  bool Bernoulli(double p);

  std::mt19937_64& engine() { return engine_; }

 private:
  static std::uint64_t Scramble(std::uint64_t x);

  std::uint64_t base_seed_ = 0;
  std::mt19937_64 engine_;
};

}  // namespace femux

#endif  // SRC_STATS_RNG_H_
