// Genetic operators matching the paper's GA configuration (Section IV-C /
// Section V): two-point crossover, single-point mutation, and tournament
// selection with five participants.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "ga/individual.hpp"
#include "ga/problem.hpp"

namespace mcs::ga {

/// A problem's box bounds, read once into arrays. Problem::lower_bound and
/// upper_bound are virtual calls; the operators below run once per child
/// and gene, so they read these arrays instead.
struct Box {
  explicit Box(const Problem& problem);
  std::vector<double> lower;  ///< inclusive lower bound of each gene
  std::vector<double> upper;  ///< inclusive upper bound of each gene
};

/// Two-point crossover: swaps the gene segment between two random cut
/// points of `a` and `b` in place. Genomes must have equal, >= 1 length.
/// For length 1 this degenerates to a full swap.
void two_point_crossover(Genome& a, Genome& b, common::Rng& rng);

/// Single-point mutation: redraws one random gene uniformly within its
/// bounds.
void single_point_mutation(Genome& genes, const Box& box, common::Rng& rng);

/// Gaussian single-point mutation: perturbs one random gene by
/// N(0, sigma_fraction * (ub - lb)) and clamps into bounds. A local-search
/// alternative to the paper's uniform redraw; requires sigma_fraction > 0.
void gaussian_mutation(Genome& genes, const Box& box, common::Rng& rng,
                       double sigma_fraction = 0.1);

/// Tournament selection: picks `tournament_size` random individuals (with
/// replacement) from the population and returns the index of the fittest.
/// Requires a non-empty population of evaluated individuals.
[[nodiscard]] std::size_t tournament_select(
    const std::vector<Individual>& population, std::size_t tournament_size,
    common::Rng& rng);

/// Draws a uniform random genome inside the box.
[[nodiscard]] Genome random_genome(const Box& box, common::Rng& rng);

/// Clamps every gene into its bounds (constraint repair, Eq. 9).
void clamp_to_bounds(Genome& genes, const Box& box);

}  // namespace mcs::ga
