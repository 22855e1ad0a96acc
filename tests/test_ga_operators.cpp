// Tests for ga/operators.hpp — the paper's GA operator set.
#include "ga/operators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace mcs::ga {
namespace {

/// Box problem over [0, 10]^d with fitness = sum of genes.
class BoxProblem final : public Problem {
 public:
  explicit BoxProblem(std::size_t dim) : dim_(dim) {}
  [[nodiscard]] std::size_t dimension() const override { return dim_; }
  [[nodiscard]] double lower_bound(std::size_t) const override { return 0.0; }
  [[nodiscard]] double upper_bound(std::size_t) const override { return 10.0; }
  [[nodiscard]] double evaluate(std::span<const double> genes) const override {
    double s = 0.0;
    for (const double g : genes) s += g;
    return s;
  }

 private:
  std::size_t dim_;
};

TEST(TwoPointCrossover, OnlySegmentSwapped) {
  Genome a = {1, 1, 1, 1, 1, 1};
  Genome b = {2, 2, 2, 2, 2, 2};
  common::Rng rng(3);
  two_point_crossover(a, b, rng);
  // Multiset union preserved.
  int ones_a = 0;
  int ones_b = 0;
  for (const double g : a) ones_a += g == 1.0;
  for (const double g : b) ones_b += g == 1.0;
  EXPECT_EQ(ones_a + ones_b, 6);
  // Swapped region is contiguous in both genomes.
  const auto contiguous = [](const Genome& g, double foreign) {
    int transitions = 0;
    for (std::size_t i = 1; i < g.size(); ++i)
      if ((g[i] == foreign) != (g[i - 1] == foreign)) ++transitions;
    return transitions <= 2;
  };
  EXPECT_TRUE(contiguous(a, 2.0));
  EXPECT_TRUE(contiguous(b, 1.0));
}

TEST(TwoPointCrossover, LengthOneSwaps) {
  Genome a = {1.0};
  Genome b = {2.0};
  common::Rng rng(1);
  two_point_crossover(a, b, rng);
  EXPECT_DOUBLE_EQ(a[0], 2.0);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
}

TEST(TwoPointCrossover, Validation) {
  Genome a = {1.0};
  Genome b = {1.0, 2.0};
  common::Rng rng(1);
  EXPECT_THROW(two_point_crossover(a, b, rng), std::invalid_argument);
  Genome e1;
  Genome e2;
  EXPECT_THROW(two_point_crossover(e1, e2, rng), std::invalid_argument);
}

TEST(SinglePointMutation, ChangesExactlyOneGeneWithinBounds) {
  const BoxProblem problem(8);
  common::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    Genome g(8, 5.0);
    single_point_mutation(g, Box(problem), rng);
    int changed = 0;
    for (const double x : g) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 10.0);
      if (x != 5.0) ++changed;
    }
    EXPECT_LE(changed, 1);
  }
}

TEST(GaussianMutation, LocalPerturbationWithinBounds) {
  const BoxProblem problem(6);
  common::Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    Genome g(6, 5.0);
    gaussian_mutation(g, Box(problem), rng, 0.05);
    int changed = 0;
    for (const double x : g) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 10.0);
      if (x != 5.0) {
        ++changed;
        // sigma = 0.5: perturbations stay local (within ~5 sigma).
        EXPECT_NEAR(x, 5.0, 2.5);
      }
    }
    EXPECT_LE(changed, 1);
  }
}

TEST(GaussianMutation, Validation) {
  const BoxProblem problem(2);
  common::Rng rng(1);
  Genome g(2, 1.0);
  EXPECT_THROW(gaussian_mutation(g, Box(problem), rng, 0.0),
               std::invalid_argument);
  Genome empty;
  EXPECT_THROW(gaussian_mutation(empty, Box(problem), rng, 0.1),
               std::invalid_argument);
}

TEST(TournamentSelect, PicksFittestWithLargeTournament) {
  std::vector<Individual> pop(10);
  for (std::size_t i = 0; i < pop.size(); ++i)
    pop[i].fitness = static_cast<double>(i);
  common::Rng rng(7);
  // Tournament of 200 draws with replacement from 10 almost surely sees
  // the best individual.
  EXPECT_EQ(tournament_select(pop, 200, rng), 9U);
}

TEST(TournamentSelect, SelectionPressureFavoursFit) {
  std::vector<Individual> pop(10);
  for (std::size_t i = 0; i < pop.size(); ++i)
    pop[i].fitness = static_cast<double>(i);
  common::Rng rng(9);
  double mean_fitness = 0.0;
  constexpr int kTrials = 5000;
  for (int t = 0; t < kTrials; ++t)
    mean_fitness += pop[tournament_select(pop, 5, rng)].fitness;
  mean_fitness /= kTrials;
  // Uniform selection would give 4.5; k=5 tournament is strongly biased up.
  EXPECT_GT(mean_fitness, 6.5);
}

TEST(TournamentSelect, Validation) {
  std::vector<Individual> empty;
  common::Rng rng(1);
  EXPECT_THROW((void)tournament_select(empty, 5, rng), std::invalid_argument);
  std::vector<Individual> one(1);
  EXPECT_THROW((void)tournament_select(one, 0, rng), std::invalid_argument);
}

TEST(RandomGenome, RespectsBounds) {
  const BoxProblem problem(20);
  common::Rng rng(11);
  const Genome g = random_genome(Box(problem), rng);
  EXPECT_EQ(g.size(), 20U);
  for (const double x : g) {
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 10.0);
  }
}

TEST(ClampToBounds, PullsOutliersIn) {
  const BoxProblem problem(3);
  Genome g = {-5.0, 5.0, 15.0};
  clamp_to_bounds(g, Box(problem));
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[1], 5.0);
  EXPECT_DOUBLE_EQ(g[2], 10.0);
}

}  // namespace
}  // namespace mcs::ga
