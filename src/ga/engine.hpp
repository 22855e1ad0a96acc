// Generational genetic algorithm engine — the library's DEAP substitute.
//
// Configuration mirrors the paper's Section V setup: crossover probability
// 0.8, mutation probability 0.2, tournament selection with 5 individuals.
// The engine is elitist (the best individual always survives) and fully
// deterministic in its seed. This header holds the configuration and the
// generation step; the generational loop itself, run_ga and its island
// generalization run_island_ga, lives in ga/islands.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "ga/individual.hpp"
#include "ga/operators.hpp"
#include "ga/problem.hpp"

namespace mcs::ga {

/// Mutation operator choice.
enum class MutationKind {
  kUniformRedraw,  ///< the paper's single-point uniform redraw
  kGaussian,       ///< local Gaussian perturbation (see gaussian_mutation)
};

/// Hyper-parameters of the GA run.
struct GaConfig {
  std::size_t population_size = 60;
  std::size_t generations = 80;
  double crossover_prob = 0.8;  ///< paper's setting
  double mutation_prob = 0.2;   ///< paper's setting
  std::size_t tournament_size = 5;  ///< paper's setting
  std::size_t elitism = 1;      ///< best individuals copied unchanged
  MutationKind mutation = MutationKind::kUniformRedraw;
  double gaussian_sigma_fraction = 0.1;  ///< for MutationKind::kGaussian
  std::uint64_t seed = 1;
};

/// Per-generation statistics for convergence diagnostics.
struct GenerationStats {
  double best = 0.0;
  double mean = 0.0;
  double worst = 0.0;
};

/// Validates the (problem, config) pair shared by run_ga and
/// run_island_ga: population_size >= 2, dimension >= 1,
/// elitism < population_size. Throws std::invalid_argument, prefixing
/// messages with `who`.
void validate_ga_config(const Problem& problem, const GaConfig& config,
                        const char* who);

/// Per-generation statistics over an evaluated population.
[[nodiscard]] GenerationStats summarize_population(
    const std::vector<Individual>& population);

/// What breed_generation reuses from one generation to the next: the box
/// bounds, read once per run, the elitism index buffer, and a slot for the
/// child that an odd number of free places leaves over (it is bred, so its
/// RNG draws happen, then dropped).
struct BreedBuffers {
  explicit BreedBuffers(const Problem& problem) : box(problem) {}
  Box box;
  std::vector<std::size_t> order;
  Individual dropped;
};

/// One generational breeding step from `population` into `next` (resized to
/// config.population_size; must not alias `population`): elitism then
/// tournament/crossover/mutation until `next` is full. Children are
/// copy-assigned into `next`'s existing genome storage, so once the
/// buffers have reached their size a generation allocates nothing.
/// Children whose genome ends up identical to their parent's (no-op
/// crossover between equal parents, mutation redrawing the same value)
/// keep the parent's cached fitness instead of being re-evaluated.
/// Consumes exactly the same RNG draw sequence as the historical inline
/// loop, so seeds reproduce old runs. ga/islands runs it once per island
/// per generation.
void breed_generation(const std::vector<Individual>& population,
                      const GaConfig& config, BreedBuffers& buffers,
                      common::Rng& rng, std::vector<Individual>& next);

}  // namespace mcs::ga
