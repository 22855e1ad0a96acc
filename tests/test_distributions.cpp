// Tests for stats/distributions.hpp: each distribution's sample moments
// must match its analytic moments (parameterized), plus constructor
// validation and mixture arithmetic.
#include "stats/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "common/stats_accumulator.hpp"

namespace mcs::stats {
namespace {

struct MomentCase {
  const char* label;
  DistributionPtr dist;
  double tolerance_mean;
  double tolerance_sd;
};

// Without this, gtest prints the case as raw bytes, pointers included, and
// gtest_discover_tests puts that text in the CTest name, which then changes
// from build to build with the load address.
void PrintTo(const MomentCase& c, std::ostream* os) { *os << c.label; }

class DistributionMoments : public ::testing::TestWithParam<MomentCase> {};

TEST_P(DistributionMoments, SampleMomentsMatchAnalytic) {
  const auto& param = GetParam();
  common::Rng rng(0x5EED);
  common::StatsAccumulator acc;
  for (int i = 0; i < 120000; ++i) acc.add(param.dist->sample(rng));
  EXPECT_NEAR(acc.mean(), param.dist->mean(), param.tolerance_mean)
      << param.dist->name();
  EXPECT_NEAR(acc.stddev(), param.dist->stddev(), param.tolerance_sd)
      << param.dist->name();
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, DistributionMoments,
    ::testing::Values(
        MomentCase{"normal",
                   std::make_shared<NormalDistribution>(10.0, 2.0), 0.05,
                   0.05},
        MomentCase{"uniform",
                   std::make_shared<UniformDistribution>(2.0, 8.0), 0.05,
                   0.05},
        MomentCase{"shifted_exp",
                   std::make_shared<ShiftedExponentialDistribution>(0.5, 3.0),
                   0.05, 0.05},
        MomentCase{"lognormal",
                   std::make_shared<LogNormalDistribution>(2.0, 0.4), 0.1,
                   0.15},
        MomentCase{"weibull",
                   std::make_shared<WeibullDistribution>(1.5, 4.0), 0.05,
                   0.05},
        MomentCase{"gumbel",
                   std::make_shared<GumbelDistribution>(5.0, 2.0), 0.05,
                   0.05}),
    [](const ::testing::TestParamInfo<MomentCase>& param_info) {
      return param_info.param.label;
    });

TEST(TruncatedNormal, NeverBelowFloor) {
  TruncatedNormalDistribution dist(5.0, 4.0, 0.0);
  common::Rng rng(1);
  for (int i = 0; i < 20000; ++i) EXPECT_GE(dist.sample(rng), 0.0);
}

TEST(LogNormal, FromMomentsRecoversArithmeticMoments) {
  const auto dist = LogNormalDistribution::from_moments(120.0, 30.0);
  EXPECT_NEAR(dist->mean(), 120.0, 1e-9);
  EXPECT_NEAR(dist->stddev(), 30.0, 1e-9);
}

TEST(LogNormal, SamplesArePositive) {
  const auto dist = LogNormalDistribution::from_moments(50.0, 25.0);
  common::Rng rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(dist->sample(rng), 0.0);
}

TEST(Weibull, SamplesNonNegative) {
  WeibullDistribution dist(0.7, 3.0);
  common::Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(dist.sample(rng), 0.0);
}

TEST(Gumbel, ExceedanceMatchesSamples) {
  GumbelDistribution dist(10.0, 3.0);
  common::Rng rng(4);
  const double x = 15.0;
  int over = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i)
    if (dist.sample(rng) > x) ++over;
  EXPECT_NEAR(static_cast<double>(over) / kN, dist.exceedance(x), 0.01);
}

TEST(Mixture, MomentsFollowTotalLaws) {
  // 50/50 mix of N(0,1) and N(10,1): mean 5,
  // var = 1 + E[(mu_i - 5)^2] = 1 + 25 = 26.
  std::vector<MixtureDistribution::Component> comps;
  comps.push_back({1.0, std::make_shared<NormalDistribution>(0.0, 1.0)});
  comps.push_back({1.0, std::make_shared<NormalDistribution>(10.0, 1.0)});
  MixtureDistribution mix(std::move(comps));
  EXPECT_DOUBLE_EQ(mix.mean(), 5.0);
  EXPECT_NEAR(mix.stddev(), std::sqrt(26.0), 1e-9);
}

TEST(Mixture, WeightsNormalized) {
  std::vector<MixtureDistribution::Component> comps;
  comps.push_back({3.0, std::make_shared<NormalDistribution>(0.0, 1.0)});
  comps.push_back({1.0, std::make_shared<NormalDistribution>(8.0, 1.0)});
  MixtureDistribution mix(std::move(comps));
  EXPECT_DOUBLE_EQ(mix.mean(), 2.0);  // 0.75*0 + 0.25*8
}

TEST(Bimodal, FactoryMatchesSampleMoments) {
  const DistributionPtr dist =
      make_bimodal_execution_time(20.0, 2.0, 60.0, 5.0, 0.6);
  common::Rng rng(5);
  common::StatsAccumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(dist->sample(rng));
  EXPECT_NEAR(acc.mean(), dist->mean(), 0.3);
  EXPECT_NEAR(acc.stddev(), dist->stddev(), 0.3);
}

TEST(Validation, BadParametersThrow) {
  EXPECT_THROW(NormalDistribution(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(UniformDistribution(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ShiftedExponentialDistribution(0.0), std::invalid_argument);
  EXPECT_THROW(WeibullDistribution(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(WeibullDistribution(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(GumbelDistribution(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(LogNormalDistribution(0.0, -0.1), std::invalid_argument);
  EXPECT_THROW(LogNormalDistribution::from_moments(-5.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(TruncatedNormalDistribution(1.0, 1.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(MixtureDistribution({}), std::invalid_argument);
}

TEST(Names, AreDescriptive) {
  EXPECT_NE(NormalDistribution(1.0, 2.0).name().find("normal"),
            std::string::npos);
  EXPECT_NE(WeibullDistribution(1.0, 2.0).name().find("weibull"),
            std::string::npos);
}

}  // namespace
}  // namespace mcs::stats
