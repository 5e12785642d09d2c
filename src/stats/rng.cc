#include "src/stats/rng.h"

#include <cmath>

namespace femux {

std::uint64_t Rng::Scramble(std::uint64_t x) {
  // SplitMix64 finalizer: turns correlated seeds into well-spread states.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng Rng::Fork(std::uint64_t stream) const {
  Rng child;
  child.engine_.seed(Scramble(base_seed_ ^ Scramble(stream + 1)));
  return child;
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

double Rng::LogNormal(double mu, double sigma) {
  std::lognormal_distribution<double> d(mu, sigma);
  return d(engine_);
}

double Rng::Exponential(double rate) {
  std::exponential_distribution<double> d(rate);
  return d(engine_);
}

double Rng::Pareto(double xm, double alpha) {
  const double u = Uniform(1e-12, 1.0);
  return xm / std::pow(u, 1.0 / alpha);
}

std::int64_t Rng::Poisson(double mean) {
  if (mean <= 0.0) {
    return 0;
  }
  std::poisson_distribution<std::int64_t> d(mean);
  return d(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution d(p);
  return d(engine_);
}

}  // namespace femux
