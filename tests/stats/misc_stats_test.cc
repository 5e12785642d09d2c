// Tests for EmpiricalCdf, StandardScaler, and the RNG.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/stats/histogram.h"
#include "src/stats/rng.h"
#include "src/stats/scaler.h"

namespace femux {
namespace {

TEST(EmpiricalCdfTest, EndpointsAndMonotonicity) {
  std::vector<double> v;
  for (int i = 100; i > 0; --i) {
    v.push_back(static_cast<double>(i));
  }
  const auto cdf = EmpiricalCdf(v, 50);
  ASSERT_EQ(cdf.size(), 50u);
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 100.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].fraction, cdf[i - 1].fraction);
  }
}

TEST(ScalerTest, TransformsToZeroMeanUnitVariance) {
  const std::vector<std::vector<double>> rows = {
      {1.0, 100.0}, {2.0, 200.0}, {3.0, 300.0}, {4.0, 400.0}};
  StandardScaler scaler;
  scaler.Fit(rows);
  const auto scaled = scaler.Transform(rows);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0;
    double var = 0.0;
    for (const auto& row : scaled) {
      mean += row[c];
    }
    mean /= static_cast<double>(scaled.size());
    for (const auto& row : scaled) {
      var += (row[c] - mean) * (row[c] - mean);
    }
    var /= static_cast<double>(scaled.size());
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-10);
  }
}

TEST(ScalerTest, ConstantColumnDoesNotProduceNan) {
  const std::vector<std::vector<double>> rows = {{5.0, 1.0}, {5.0, 2.0}};
  StandardScaler scaler;
  scaler.Fit(rows);
  const auto out = scaler.Transform(std::vector<double>{5.0, 1.5});
  EXPECT_TRUE(std::isfinite(out[0]));
  EXPECT_DOUBLE_EQ(out[0], 0.0);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng root(42);
  Rng a = root.Fork(1);
  Rng b = root.Fork(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform() != b.Uniform()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, ForkIsStableRegardlessOfDrawOrder) {
  Rng root1(7);
  root1.Uniform();  // Consuming draws must not change forked streams.
  Rng root2(7);
  EXPECT_DOUBLE_EQ(root1.Fork(3).Uniform(), root2.Fork(3).Uniform());
}

TEST(RngTest, ParetoIsHeavyTailedAndBounded) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(1.0, 2.0), 1.0);
  }
}

TEST(RngTest, PoissonMeanRoughlyCorrect) {
  Rng rng(3);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(rng.Poisson(7.0));
  }
  EXPECT_NEAR(total / n, 7.0, 0.15);
}

}  // namespace
}  // namespace femux
