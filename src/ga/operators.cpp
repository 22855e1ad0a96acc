#include "ga/operators.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcs::ga {

Box::Box(const Problem& problem)
    : lower(problem.dimension()), upper(problem.dimension()) {
  for (std::size_t i = 0; i < lower.size(); ++i) {
    lower[i] = problem.lower_bound(i);
    upper[i] = problem.upper_bound(i);
  }
}

void two_point_crossover(Genome& a, Genome& b, common::Rng& rng) {
  if (a.size() != b.size() || a.empty())
    throw std::invalid_argument(
        "two_point_crossover: genomes must match and be non-empty");
  std::size_t lo = static_cast<std::size_t>(rng.uniform_u64(0, a.size() - 1));
  std::size_t hi = static_cast<std::size_t>(rng.uniform_u64(0, a.size() - 1));
  if (lo > hi) std::swap(lo, hi);
  for (std::size_t i = lo; i <= hi; ++i) std::swap(a[i], b[i]);
}

void single_point_mutation(Genome& genes, const Box& box, common::Rng& rng) {
  if (genes.empty())
    throw std::invalid_argument("single_point_mutation: empty genome");
  const auto i =
      static_cast<std::size_t>(rng.uniform_u64(0, genes.size() - 1));
  genes[i] = rng.uniform(box.lower[i], box.upper[i]);
}

void gaussian_mutation(Genome& genes, const Box& box, common::Rng& rng,
                       double sigma_fraction) {
  if (genes.empty())
    throw std::invalid_argument("gaussian_mutation: empty genome");
  if (sigma_fraction <= 0.0)
    throw std::invalid_argument(
        "gaussian_mutation: sigma_fraction must be > 0");
  const auto i =
      static_cast<std::size_t>(rng.uniform_u64(0, genes.size() - 1));
  const double lo = box.lower[i];
  const double hi = box.upper[i];
  const double sigma = sigma_fraction * (hi - lo);
  genes[i] = std::clamp(genes[i] + rng.normal(0.0, sigma), lo, hi);
}

std::size_t tournament_select(const std::vector<Individual>& population,
                              std::size_t tournament_size, common::Rng& rng) {
  if (population.empty())
    throw std::invalid_argument("tournament_select: empty population");
  if (tournament_size == 0)
    throw std::invalid_argument("tournament_select: tournament_size >= 1");
  std::size_t best = static_cast<std::size_t>(
      rng.uniform_u64(0, population.size() - 1));
  for (std::size_t k = 1; k < tournament_size; ++k) {
    const auto challenger = static_cast<std::size_t>(
        rng.uniform_u64(0, population.size() - 1));
    if (population[challenger].fitness > population[best].fitness)
      best = challenger;
  }
  return best;
}

Genome random_genome(const Box& box, common::Rng& rng) {
  Genome genes(box.lower.size());
  for (std::size_t i = 0; i < genes.size(); ++i)
    genes[i] = rng.uniform(box.lower[i], box.upper[i]);
  return genes;
}

void clamp_to_bounds(Genome& genes, const Box& box) {
  for (std::size_t i = 0; i < genes.size(); ++i)
    genes[i] = std::clamp(genes[i], box.lower[i], box.upper[i]);
}

}  // namespace mcs::ga
