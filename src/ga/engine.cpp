#include "ga/engine.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace mcs::ga {

namespace {

bool fitter(const Individual& a, const Individual& b) {
  return a.fitness > b.fitness;
}

}  // namespace

void validate_ga_config(const Problem& problem, const GaConfig& config,
                        const char* who) {
  const std::string prefix(who);
  if (config.population_size < 2)
    throw std::invalid_argument(prefix + ": population_size must be >= 2");
  if (problem.dimension() == 0)
    throw std::invalid_argument(prefix + ": problem dimension must be >= 1");
  if (config.elitism >= config.population_size)
    throw std::invalid_argument(prefix + ": elitism must be < population_size");
}

GenerationStats summarize_population(const std::vector<Individual>& population) {
  GenerationStats s;
  s.best = -std::numeric_limits<double>::infinity();
  s.worst = std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (const Individual& ind : population) {
    s.best = std::max(s.best, ind.fitness);
    s.worst = std::min(s.worst, ind.fitness);
    sum += ind.fitness;
  }
  s.mean = sum / static_cast<double>(population.size());
  return s;
}

void breed_generation(const std::vector<Individual>& population,
                      const GaConfig& config, BreedBuffers& buffers,
                      common::Rng& rng, std::vector<Individual>& next) {
  const std::size_t size = config.population_size;
  next.resize(size);

  // Elitism: carry over the current best individuals unchanged. Sorting
  // indices avoids deep-copying every genome just to find the winners.
  std::vector<std::size_t>& order = buffers.order;
  order.resize(population.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(
                                        config.elitism),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return fitter(population[a], population[b]);
                    });
  for (std::size_t e = 0; e < config.elitism; ++e)
    next[e] = population[order[e]];

  for (std::size_t slot = config.elitism; slot < size; slot += 2) {
    const std::size_t parent_a =
        tournament_select(population, config.tournament_size, rng);
    const std::size_t parent_b =
        tournament_select(population, config.tournament_size, rng);
    Individual& child_a = next[slot];
    Individual& child_b = slot + 1 < size ? next[slot + 1] : buffers.dropped;
    child_a = population[parent_a];
    child_b = population[parent_b];
    if (rng.bernoulli(config.crossover_prob))
      two_point_crossover(child_a.genes, child_b.genes, rng);
    auto mutate = [&](Genome& genes) {
      if (config.mutation == MutationKind::kGaussian)
        gaussian_mutation(genes, buffers.box, rng,
                          config.gaussian_sigma_fraction);
      else
        single_point_mutation(genes, buffers.box, rng);
    };
    if (rng.bernoulli(config.mutation_prob)) mutate(child_a.genes);
    if (rng.bernoulli(config.mutation_prob)) mutate(child_b.genes);
    clamp_to_bounds(child_a.genes, buffers.box);
    clamp_to_bounds(child_b.genes, buffers.box);
    // Invalidate only genomes the operators actually changed. Tournament
    // selection can pick the same parent twice, making the crossover swap
    // a no-op, and a mutation can redraw the value already there; in both
    // cases the child still carries its parent's fitness, and evaluation
    // is a pure function of the genes, so re-evaluating would burn a
    // fitness call to recompute a number we already hold.
    if (child_a.genes != population[parent_a].genes)
      child_a.evaluated = false;
    if (child_b.genes != population[parent_b].genes)
      child_b.evaluated = false;
  }
}

}  // namespace mcs::ga
