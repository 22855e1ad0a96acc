// Tests for core/acceptance.hpp — the Fig. 6 acceptance-ratio machinery.
#include "core/acceptance.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

namespace mcs::core {
namespace {

TEST(Accepts, ChebyshevDominatesLambdaPerSet) {
  // On any single task set, the scheme (C^LO = ACET at the acceptance
  // corner) admits at least whenever lambda in [1/4,1] admits, because
  // ACET <= WCET^pes/4 is guaranteed by the generator's gap >= 8.
  taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  int lambda_only = 0;
  for (int t = 0; t < 60; ++t) {
    common::Rng set_rng(common::index_seed(11, static_cast<std::uint64_t>(t)));
    const mc::TaskSet tasks = taskgen::generate_mixed(config, 0.8, set_rng);
    common::Rng a_rng(100 + static_cast<std::uint64_t>(t));
    common::Rng b_rng(100 + static_cast<std::uint64_t>(t));
    const bool lambda = accepts(Approach::kBaruahLambda, tasks, a_rng);
    const bool chebyshev = accepts(Approach::kBaruahChebyshev, tasks, b_rng);
    if (lambda && !chebyshev) ++lambda_only;
  }
  EXPECT_EQ(lambda_only, 0);
}

TEST(AcceptanceRatio, InUnitInterval) {
  for (const double u : {0.5, 0.9, 1.2}) {
    const double r =
        acceptance_ratio(Approach::kBaruahChebyshev, u, 20, 3);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(AcceptanceRatio, LowUtilizationAlwaysAccepted) {
  for (const Approach a :
       {Approach::kBaruahLambda, Approach::kBaruahChebyshev,
        Approach::kLiuLambda, Approach::kLiuChebyshev}) {
    EXPECT_DOUBLE_EQ(acceptance_ratio(a, 0.3, 20, 4), 1.0)
        << to_string(a);
  }
}

TEST(AcceptanceRatio, DecreasesWithUtilization) {
  double prev = 1.1;
  for (const double u : {0.6, 0.9, 1.1, 1.3}) {
    const double r = acceptance_ratio(Approach::kBaruahLambda, u, 60, 5);
    EXPECT_LE(r, prev + 0.05);  // small slack: different task-set samples
    prev = r;
  }
}

TEST(AcceptanceRatio, SchemeImprovesAcceptance) {
  // At a stressed bound the Chebyshev corner admits more sets (Fig. 6).
  const double lambda =
      acceptance_ratio(Approach::kBaruahLambda, 1.1, 80, 6);
  const double chebyshev =
      acceptance_ratio(Approach::kBaruahChebyshev, 1.1, 80, 6);
  EXPECT_GE(chebyshev, lambda);
  EXPECT_GT(chebyshev, 0.5);
}

TEST(AcceptanceRatio, DegradedLiuIsHarderThanDropAll) {
  const double liu = acceptance_ratio(Approach::kLiuChebyshev, 1.1, 60, 7);
  const double baruah =
      acceptance_ratio(Approach::kBaruahChebyshev, 1.1, 60, 7);
  EXPECT_GE(baruah, liu);
}

TEST(AcceptanceRatio, SeedToSeedSpreadIsBinomial) {
  // Each ratio is a mean over 200 sets. If those sets are independent,
  // the ratios of 40 seeds scatter with the binomial variance
  // p(1 - p)/200. Per-set streams that overlap (each set drawn from the
  // previous set's generator shifted by one draw) share most of their
  // tasks and push the spread to 5-8x that variance at these two points.
  constexpr std::size_t kSeeds = 40;
  constexpr std::size_t kSets = 200;
  const std::pair<Approach, double> points[] = {
      {Approach::kLiuChebyshev, 1.2}, {Approach::kBaruahChebyshev, 1.4}};
  for (const auto& [approach, u] : points) {
    std::vector<double> ratios;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed)
      ratios.push_back(acceptance_ratio(approach, u, kSets, seed));
    double mean = 0.0;
    for (const double r : ratios) mean += r;
    mean /= static_cast<double>(kSeeds);
    double variance = 0.0;
    for (const double r : ratios) variance += (r - mean) * (r - mean);
    variance /= static_cast<double>(kSeeds - 1);
    const double binomial =
        mean * (1.0 - mean) / static_cast<double>(kSets);
    ASSERT_GT(binomial, 0.0) << to_string(approach) << " u=" << u;
    EXPECT_LT(variance, 2.0 * binomial)
        << to_string(approach) << " u=" << u << " mean=" << mean
        << " variance/binomial=" << variance / binomial;
  }
}

TEST(ApproachNames, AreDistinct) {
  EXPECT_NE(to_string(Approach::kBaruahLambda),
            to_string(Approach::kBaruahChebyshev));
  EXPECT_NE(to_string(Approach::kLiuLambda),
            to_string(Approach::kLiuChebyshev));
}

}  // namespace
}  // namespace mcs::core
