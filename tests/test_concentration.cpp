// Property suites for the concentration-bound family
// (stats/concentration.hpp), the analytic layer behind the policy
// shoot-out:
//  B1 — every bound is non-increasing in n (strictly inside its active
//       region) and lands in (0, 1].
//  B2 — inverse round-trip: exceedance(n_for_target(p)) <= p.
//  B3 — dominance ordering: gauss <= vp <= cantelli <= chebyshev2
//       pointwise (the tighter premise buys a tighter bound).
//  B4 — empirical exceedance stays within each bound over the
//       distribution zoo (VP/Gauss only on the unimodal members).
//  B5 — the unimodality pre-check accepts the unimodal zoo members and
//       rejects the bimodal mixture.
//  B6 — names, parsing, and domain errors.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "stats/concentration.hpp"
#include "stats/distributions.hpp"

namespace mcs::stats {
namespace {

constexpr BoundKind kAllKinds[] = {BoundKind::kCantelli, BoundKind::kChebyshev,
                                   BoundKind::kVysochanskijPetunin,
                                   BoundKind::kGauss};

/// The unimodal members of the test_stats_properties zoo.
std::vector<DistributionPtr> unimodal_zoo() {
  return {
      std::make_shared<NormalDistribution>(100.0, 15.0),
      std::make_shared<TruncatedNormalDistribution>(50.0, 10.0),
      std::make_shared<UniformDistribution>(10.0, 90.0),
      std::make_shared<ShiftedExponentialDistribution>(0.05, 20.0),
      LogNormalDistribution::from_moments(80.0, 25.0),
      std::make_shared<WeibullDistribution>(1.5, 60.0),
      std::make_shared<GumbelDistribution>(70.0, 12.0),
  };
}

DistributionPtr bimodal_member() {
  return make_bimodal_execution_time(40.0, 5.0, 120.0, 12.0, 0.7);
}

class ConcentrationProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ConcentrationProperty, B1_BoundsMonotoneInN) {
  common::Rng rng(GetParam());
  for (const BoundKind kind : kAllKinds) {
    for (int trial = 0; trial < 200; ++trial) {
      const double a = rng.uniform(0.0, 40.0);
      const double b = a + rng.uniform(1e-6, 8.0);
      const double pa = concentration_exceedance(kind, a);
      const double pb = concentration_exceedance(kind, b);
      EXPECT_LE(pb, pa) << bound_name(kind) << " a=" << a << " b=" << b;
      EXPECT_GT(pb, 0.0) << bound_name(kind);
      EXPECT_LE(pa, 1.0) << bound_name(kind);
      // Strict inside the active region (chebyshev2 saturates at 1 until
      // n = 1; the one-sided bounds are strict for all n > 0).
      if (a > 1.05) {
        EXPECT_LT(pb, pa) << bound_name(kind) << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST_P(ConcentrationProperty, B2_InverseRoundTrip) {
  common::Rng rng(GetParam() + 100);
  for (const BoundKind kind : kAllKinds) {
    for (int trial = 0; trial < 300; ++trial) {
      const double p = rng.uniform(1e-4, 0.999);
      const double n = concentration_n_for_target(kind, p);
      EXPECT_GE(n, 0.0) << bound_name(kind) << " p=" << p;
      EXPECT_LE(concentration_exceedance(kind, n), p + 1e-9)
          << bound_name(kind) << " p=" << p << " n=" << n;
    }
    // Targets at or above the trivial bound need no deviation at all.
    EXPECT_EQ(concentration_n_for_target(kind, 1.0), 0.0);
    EXPECT_EQ(concentration_n_for_target(kind, 1.5), 0.0);
  }
}

TEST_P(ConcentrationProperty, B3_DominanceOrdering) {
  common::Rng rng(GetParam() + 200);
  for (int trial = 0; trial < 400; ++trial) {
    const double n = rng.uniform(0.0, 50.0);
    const double gauss = concentration_exceedance(BoundKind::kGauss, n);
    const double vp =
        concentration_exceedance(BoundKind::kVysochanskijPetunin, n);
    const double cantelli =
        concentration_exceedance(BoundKind::kCantelli, n);
    const double cheb2 = concentration_exceedance(BoundKind::kChebyshev, n);
    EXPECT_LE(gauss, vp + 1e-12) << "n=" << n;
    EXPECT_LE(vp, cantelli + 1e-12) << "n=" << n;
    EXPECT_LE(cantelli, cheb2 + 1e-12) << "n=" << n;
  }
  // The same ordering on the inverse: a stronger premise never needs a
  // larger multiplier for the same target.
  for (int trial = 0; trial < 200; ++trial) {
    const double p = rng.uniform(1e-4, 0.999);
    const double n_gauss = concentration_n_for_target(BoundKind::kGauss, p);
    const double n_vp =
        concentration_n_for_target(BoundKind::kVysochanskijPetunin, p);
    const double n_cantelli =
        concentration_n_for_target(BoundKind::kCantelli, p);
    EXPECT_LE(n_gauss, n_vp + 1e-9) << "p=" << p;
    EXPECT_LE(n_vp, n_cantelli + 1e-9) << "p=" << p;
  }
}

TEST_P(ConcentrationProperty, B4_EmpiricalExceedanceWithinBound) {
  // Distribution-free bounds must hold on every zoo member; the unimodal
  // bounds additionally hold on the unimodal members (the premise the
  // policy layer certifies before using them).
  constexpr std::size_t kDraws = 4000;
  auto zoo = unimodal_zoo();
  const std::size_t unimodal_count = zoo.size();
  zoo.push_back(bimodal_member());
  for (std::size_t d = 0; d < zoo.size(); ++d) {
    const DistributionPtr& dist = zoo[d];
    common::Rng rng(GetParam() + 300);
    std::vector<double> xs(kDraws);
    for (double& x : xs) x = dist->sample(rng);
    double mean = 0.0;
    for (const double x : xs) mean += x;
    mean /= static_cast<double>(kDraws);
    double var = 0.0;
    for (const double x : xs) var += (x - mean) * (x - mean);
    var /= static_cast<double>(kDraws);
    const double sigma = std::sqrt(var);
    for (const double n : {1.0, 2.0, 3.0, 4.0}) {
      std::size_t over = 0;
      for (const double x : xs)
        if (x >= mean + n * sigma) ++over;
      const double rate = static_cast<double>(over) / kDraws;
      EXPECT_LE(rate,
                concentration_exceedance(BoundKind::kCantelli, n) + 0.02)
          << dist->name() << " at n=" << n;
      EXPECT_LE(rate,
                concentration_exceedance(BoundKind::kChebyshev, n) + 0.02)
          << dist->name() << " at n=" << n;
      if (d < unimodal_count) {
        EXPECT_LE(rate, concentration_exceedance(
                            BoundKind::kVysochanskijPetunin, n) +
                            0.02)
            << dist->name() << " at n=" << n;
        EXPECT_LE(rate, concentration_exceedance(BoundKind::kGauss, n) + 0.02)
            << dist->name() << " at n=" << n;
      }
    }
  }
}

TEST_P(ConcentrationProperty, B5_UnimodalityCheckSeparatesTheZoo) {
  constexpr std::size_t kDraws = 4000;
  for (const DistributionPtr& dist : unimodal_zoo()) {
    common::Rng rng(GetParam() + 400);
    std::vector<double> xs(kDraws);
    for (double& x : xs) x = dist->sample(rng);
    const UnimodalityReport report = unimodality_check(xs);
    EXPECT_TRUE(report.unimodal) << dist->name() << " modes=" << report.modes;
  }
  common::Rng rng(GetParam() + 400);
  const DistributionPtr bimodal = bimodal_member();
  std::vector<double> xs(kDraws);
  for (double& x : xs) x = bimodal->sample(rng);
  const UnimodalityReport report = unimodality_check(xs);
  EXPECT_FALSE(report.unimodal);
  EXPECT_GE(report.modes, 2u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcentrationProperty,
                         ::testing::Range<std::uint64_t>(1, 6));

TEST(Concentration, NamesAndParsingRoundTrip) {
  for (const BoundKind kind : kAllKinds)
    EXPECT_EQ(parse_bound_kind(bound_name(kind)), kind);
  EXPECT_EQ(parse_bound_kind("chebyshev"), BoundKind::kCantelli);
  EXPECT_EQ(parse_bound_kind("two-sided"), BoundKind::kChebyshev);
  EXPECT_EQ(parse_bound_kind("vysochanskij-petunin"),
            BoundKind::kVysochanskijPetunin);
  EXPECT_THROW((void)parse_bound_kind("nope"), std::invalid_argument);
}

TEST(Concentration, DomainEdges) {
  for (const BoundKind kind : kAllKinds) {
    EXPECT_THROW((void)concentration_n_for_target(kind, 0.0),
                 std::invalid_argument);
    EXPECT_THROW((void)concentration_n_for_target(kind, -0.1),
                 std::invalid_argument);
    // n <= 0 carries no information beyond the trivial/at-mean mass bound.
    EXPECT_LE(concentration_exceedance(kind, 0.0), 1.0);
    EXPECT_EQ(concentration_exceedance(kind, -3.0),
              concentration_exceedance(kind, 0.0));
  }
  // Knee continuity of the piecewise one-sided bounds: both branches
  // evaluate to 1/6 at the crossover.
  EXPECT_NEAR(concentration_exceedance(BoundKind::kVysochanskijPetunin,
                                       std::sqrt(5.0 / 3.0)),
              1.0 / 6.0, 1e-12);
  EXPECT_NEAR(concentration_exceedance(BoundKind::kGauss,
                                       2.0 / std::sqrt(3.0)),
              1.0 / 6.0, 1e-12);
}

TEST(Concentration, WrapperAgreesWithFreeFunctions) {
  const ConcentrationBound bound(BoundKind::kVysochanskijPetunin);
  EXPECT_EQ(bound.kind(), BoundKind::kVysochanskijPetunin);
  for (const double n : {0.5, 1.0, 2.5, 7.0})
    EXPECT_EQ(bound.exceedance(n),
              concentration_exceedance(BoundKind::kVysochanskijPetunin, n));
  for (const double p : {0.01, 0.1, 0.3})
    EXPECT_EQ(bound.n_for_target(p),
              concentration_n_for_target(BoundKind::kVysochanskijPetunin, p));
}

}  // namespace
}  // namespace mcs::stats
