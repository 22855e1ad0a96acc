// Tests for stats/chebyshev.hpp — the paper's Theorem 1 machinery,
// including a parameterized property suite checking the bound empirically
// against a zoo of distributions (the bound must hold for ALL of them).
#include "stats/chebyshev.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/stats_accumulator.hpp"
#include "stats/distributions.hpp"

namespace mcs::stats {
namespace {

TEST(Cantelli, MatchesClosedForm) {
  // sigma^2 = 4, a = 2: 4 / (4 + 4) = 0.5.
  EXPECT_DOUBLE_EQ(cantelli_upper_bound(4.0, 2.0), 0.5);
  // sigma^2 = 1, a = 3: 1 / 10.
  EXPECT_DOUBLE_EQ(cantelli_upper_bound(1.0, 3.0), 0.1);
}

TEST(Cantelli, DegenerateCases) {
  EXPECT_DOUBLE_EQ(cantelli_upper_bound(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(cantelli_upper_bound(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(cantelli_upper_bound(4.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(cantelli_upper_bound(4.0, -1.0), 1.0);
}

TEST(ChebyshevExceedance, PaperTable2AnalysisColumn) {
  // Table II's analysis column: n=0 -> 100%, n=1 -> 50%, n=2 -> 20%,
  // n=3 -> 10%, n=4 -> 5.88%.
  EXPECT_DOUBLE_EQ(chebyshev_exceedance_bound(0.0), 1.0);
  EXPECT_DOUBLE_EQ(chebyshev_exceedance_bound(1.0), 0.5);
  EXPECT_DOUBLE_EQ(chebyshev_exceedance_bound(2.0), 0.2);
  EXPECT_DOUBLE_EQ(chebyshev_exceedance_bound(3.0), 0.1);
  EXPECT_NEAR(chebyshev_exceedance_bound(4.0), 0.0588, 0.0001);
}

TEST(ChebyshevExceedance, NegativeNIsVacuous) {
  EXPECT_DOUBLE_EQ(chebyshev_exceedance_bound(-1.0), 1.0);
}

TEST(ChebyshevExceedance, MonotoneDecreasingInN) {
  double prev = 2.0;
  for (double n = 0.0; n <= 50.0; n += 0.5) {
    const double bound = chebyshev_exceedance_bound(n);
    EXPECT_LT(bound, prev);
    prev = bound;
  }
}

TEST(ChebyshevExceedance, ConsistentWithCantelli) {
  // With a = n * sigma, Cantelli reduces to 1/(1+n^2) independent of sigma.
  for (const double sigma : {0.5, 1.0, 7.0}) {
    for (const double n : {0.5, 1.0, 2.0, 10.0}) {
      EXPECT_NEAR(cantelli_upper_bound(sigma * sigma, n * sigma),
                  chebyshev_exceedance_bound(n), 1e-12);
    }
  }
}

TEST(TwoSided, LooserThanOneSidedAboveOne) {
  for (const double n : {1.5, 2.0, 5.0}) {
    EXPECT_GT(chebyshev_two_sided_bound(n), chebyshev_exceedance_bound(n));
  }
  EXPECT_DOUBLE_EQ(chebyshev_two_sided_bound(0.5), 1.0);
}

TEST(InverseBound, RoundTrips) {
  for (const double p : {0.5, 0.2, 0.1, 0.01}) {
    const double n = n_for_exceedance_bound(p);
    EXPECT_NEAR(chebyshev_exceedance_bound(n), p, 1e-12);
  }
  EXPECT_DOUBLE_EQ(n_for_exceedance_bound(1.0), 0.0);
  EXPECT_TRUE(std::isinf(n_for_exceedance_bound(0.0)));
}

TEST(ImpliedN, InvertsEq6) {
  // C^LO = ACET + n * sigma  =>  n = (C^LO - ACET) / sigma.
  EXPECT_DOUBLE_EQ(implied_n(10.0, 2.0, 16.0), 3.0);
  EXPECT_DOUBLE_EQ(implied_n(10.0, 2.0, 8.0), -1.0);
}

TEST(ImpliedN, ZeroSigma) {
  EXPECT_TRUE(std::isinf(implied_n(10.0, 0.0, 10.0)));
  EXPECT_GT(implied_n(10.0, 0.0, 12.0), 0.0);
  EXPECT_LT(implied_n(10.0, 0.0, 9.0), 0.0);
}

// ------------------------------------------------------------------
// Property suite: the Theorem 1 bound holds empirically for every
// distribution shape, using the distribution's TRUE moments.
// ------------------------------------------------------------------

struct BoundCase {
  const char* label;
  DistributionPtr dist;
};

// Prints the label, so the CTest names that gtest_discover_tests builds
// from the parameter do not carry pointer bytes that change every build.
void PrintTo(const BoundCase& c, std::ostream* os) { *os << c.label; }

class ChebyshevBoundProperty : public ::testing::TestWithParam<BoundCase> {};

TEST_P(ChebyshevBoundProperty, EmpiricalExceedanceBelowBound) {
  const DistributionPtr dist = GetParam().dist;
  common::Rng rng(0xABCD);
  constexpr int kSamples = 60000;
  const double mean = dist->mean();
  const double sigma = dist->stddev();
  const std::vector<double> ns = {0.5, 1.0, 2.0, 3.0, 5.0};
  std::vector<int> exceed(ns.size(), 0);
  for (int i = 0; i < kSamples; ++i) {
    const double x = dist->sample(rng);
    for (std::size_t k = 0; k < ns.size(); ++k)
      if (x - mean >= ns[k] * sigma) ++exceed[k];
  }
  for (std::size_t k = 0; k < ns.size(); ++k) {
    const double rate = static_cast<double>(exceed[k]) / kSamples;
    const double bound = chebyshev_exceedance_bound(ns[k]);
    // Small slack for Monte-Carlo noise on the boundary.
    EXPECT_LE(rate, bound + 0.01)
        << GetParam().label << " at n=" << ns[k];
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistributionZoo, ChebyshevBoundProperty,
    ::testing::Values(
        BoundCase{"normal", std::make_shared<NormalDistribution>(50.0, 10.0)},
        BoundCase{"uniform",
                  std::make_shared<UniformDistribution>(10.0, 90.0)},
        BoundCase{"exponential",
                  std::make_shared<ShiftedExponentialDistribution>(0.1, 5.0)},
        BoundCase{"lognormal",
                  LogNormalDistribution::from_moments(100.0, 40.0)},
        BoundCase{"weibull_heavy",
                  std::make_shared<WeibullDistribution>(0.8, 10.0)},
        BoundCase{"weibull_light",
                  std::make_shared<WeibullDistribution>(3.0, 10.0)},
        BoundCase{"gumbel", std::make_shared<GumbelDistribution>(40.0, 8.0)},
        BoundCase{"bimodal", make_bimodal_execution_time(20.0, 3.0, 70.0,
                                                         8.0, 0.7)}),
    [](const ::testing::TestParamInfo<BoundCase>& param_info) {
      return param_info.param.label;
    });

}  // namespace
}  // namespace mcs::stats
