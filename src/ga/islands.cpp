#include "ga/islands.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace mcs::ga {

namespace {

void validate_island_config(const Problem& problem,
                            const IslandGaConfig& config) {
  validate_ga_config(problem, config.ga, "run_island_ga");
  if (config.plan.islands == 0)
    throw std::invalid_argument("run_island_ga: islands must be >= 1");
}

bool migration_enabled(const IslandGaConfig& config) {
  return config.plan.islands > 1 && config.plan.migration_interval > 0 &&
         config.plan.migrants > 0;
}

/// Checks that island `i` of `state` carries an evaluated population of
/// the configured shape (used on every island a later epoch reads).
void require_population(const IslandState& state, std::size_t i,
                        const Problem& problem, const IslandGaConfig& config) {
  if (i >= state.size() || state[i].size() != config.ga.population_size)
    throw std::runtime_error(
        "evolve_islands_epoch: previous state is missing island " +
        std::to_string(i));
  for (const Individual& ind : state[i])
    if (!ind.evaluated || ind.genes.size() != problem.dimension())
      throw std::runtime_error(
          "evolve_islands_epoch: malformed individual in island " +
          std::to_string(i));
}

/// Copies of the top-K individuals of `population` (fitness order, index
/// tie-break via partial_sort — the same selection the elitism step uses).
std::vector<Individual> top_k(const std::vector<Individual>& population,
                              std::size_t k) {
  std::vector<std::size_t> order(population.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k), order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return population[a].fitness > population[b].fitness;
                    });
  std::vector<Individual> out;
  out.reserve(k);
  for (std::size_t e = 0; e < k; ++e) out.push_back(population[order[e]]);
  return out;
}

/// Indices of the K least-fit members of `population`.
std::vector<std::size_t> worst_k(const std::vector<Individual>& population,
                                 std::size_t k) {
  std::vector<std::size_t> order(population.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k), order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return population[a].fitness < population[b].fitness;
                    });
  order.resize(k);
  return order;
}

/// Evaluates every unevaluated member of islands [begin, end) in place,
/// fanning the fitness calls out across the shared thread pool. `todo` is
/// a reused buffer. Problem::evaluate is a pure function of the genes and
/// each call writes only its own member, so the outcome is identical to
/// the serial loop for any --jobs value. Results pass through
/// sanitize_fitness (see problem.hpp): a NaN or infinite objective becomes
/// -inf instead of corrupting the comparator.
void evaluate_islands(IslandState& state, std::size_t begin, std::size_t end,
                      const Problem& problem, std::vector<Individual*>& todo,
                      IslandStats& stats) {
  todo.clear();
  for (std::size_t i = begin; i < end; ++i)
    for (Individual& ind : state[i])
      if (!ind.evaluated) todo.push_back(&ind);
  common::parallel_for(todo.size(), [&](std::size_t k) {
    Individual& ind = *todo[k];
    ind.fitness = sanitize_fitness(problem.evaluate(ind.genes));
    ind.evaluated = true;
  });
  stats.evaluations += todo.size();
}

/// Hall-of-fame update over islands [begin, end): starting from unset,
/// the first individual seeds it and later ones replace it only on
/// strictly greater fitness (first-of-equals wins).
void update_hall_of_fame(const IslandState& state, std::size_t begin,
                         std::size_t end, Individual* best) {
  if (best == nullptr) return;
  for (std::size_t i = begin; i < end; ++i)
    for (const Individual& ind : state[i])
      if (!best->evaluated || ind.fitness > best->fitness) *best = ind;
}

}  // namespace

std::uint64_t island_seed(const IslandGaConfig& config, std::size_t island) {
  // A single island keeps the raw seed, so `islands=1, interval=0` walks
  // run_ga's historical RNG stream.
  if (config.plan.islands <= 1) return config.ga.seed;
  return common::index_seed(config.ga.seed, island);
}

namespace {

std::size_t effective_interval(const IslandGaConfig& config) {
  if (config.plan.migration_interval == 0)
    return std::max<std::size_t>(config.ga.generations, 1);
  return config.plan.migration_interval;
}

}  // namespace

std::size_t epoch_count(const IslandGaConfig& config) {
  const std::size_t interval = effective_interval(config);
  return std::max<std::size_t>(
      1, (config.ga.generations + interval - 1) / interval);
}

std::pair<std::size_t, std::size_t> epoch_generations(
    const IslandGaConfig& config, std::size_t epoch) {
  const std::size_t interval = effective_interval(config);
  const std::size_t lo = std::min(epoch * interval, config.ga.generations);
  return {lo, std::min(lo + interval, config.ga.generations)};
}

void evolve_islands_epoch(const Problem& problem, const IslandGaConfig& config,
                          std::size_t epoch, IslandState& state,
                          std::size_t begin, std::size_t end,
                          IslandStats& stats,
                          std::vector<std::vector<GenerationStats>>* history,
                          Individual* hall_of_fame) {
  validate_island_config(problem, config);
  const std::size_t islands = config.plan.islands;
  if (begin >= end || end > islands)
    throw std::invalid_argument("evolve_islands_epoch: bad island slice");
  if (epoch >= epoch_count(config))
    throw std::invalid_argument("evolve_islands_epoch: epoch out of range");
  if (state.size() < islands) state.resize(islands);
  if (history != nullptr && history->size() < islands)
    history->resize(islands);

  BreedBuffers buffers(problem);
  // Per-epoch counter-based RNG streams: nothing carries over, so a
  // shard can reproduce any (island, epoch) cell in isolation.
  std::vector<common::Rng> rngs;
  rngs.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint64_t base = island_seed(config, i);
    rngs.emplace_back(epoch == 0 ? base : common::index_seed(base, epoch));
  }
  std::vector<Individual*> todo;
  todo.reserve((end - begin) * config.ga.population_size);

  if (epoch == 0) {
    for (std::size_t i = begin; i < end; ++i) {
      common::Rng& rng = rngs[i - begin];
      std::vector<Individual>& population = state[i];
      population.assign(config.ga.population_size, Individual{});
      for (Individual& ind : population)
        ind.genes = random_genome(buffers.box, rng);
      // Warm start: overwrite the tail with the seed genomes. The random
      // draws above already happened, so the RNG stream (and with it the
      // rest of the run's structure) is independent of the injection.
      const std::size_t inject =
          std::min(config.seed_genomes.size(), population.size());
      for (std::size_t k = 0; k < inject; ++k) {
        Individual& target = population[population.size() - inject + k];
        const Genome& seed = config.seed_genomes[k];
        const std::size_t copy = std::min(seed.size(), target.genes.size());
        std::copy_n(seed.begin(), copy, target.genes.begin());
        clamp_to_bounds(target.genes, buffers.box);
      }
    }
    evaluate_islands(state, begin, end, problem, todo, stats);
    update_hall_of_fame(state, begin, end, hall_of_fame);
  } else {
    for (std::size_t i = begin; i < end; ++i)
      require_population(state, i, problem, config);
    if (migration_enabled(config)) {
      const std::size_t k =
          std::min(config.plan.migrants, config.ga.population_size);
      // Collect every needed sender's emigrants before touching any
      // receiver: with a full slice, island i's ring predecessor i-1 may
      // itself have received immigrants already, and emigrants must come
      // from the pre-epoch state.
      std::vector<std::vector<Individual>> emigrants(end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t sender = (i + islands - 1) % islands;
        require_population(state, sender, problem, config);
        emigrants[i - begin] = top_k(state[sender], k);
      }
      for (std::size_t i = begin; i < end; ++i) {
        const std::vector<std::size_t> victims = worst_k(state[i], k);
        for (std::size_t e = 0; e < k; ++e)
          state[i][victims[e]] = emigrants[i - begin][e];
        stats.migrations += k;
      }
    }
  }

  const auto [gen_begin, gen_end] = epoch_generations(config, epoch);
  std::vector<Individual> spare;
  for (std::size_t gen = gen_begin; gen < gen_end; ++gen) {
    for (std::size_t i = begin; i < end; ++i) {
      breed_generation(state[i], config.ga, buffers, rngs[i - begin], spare);
      state[i].swap(spare);
    }
    evaluate_islands(state, begin, end, problem, todo, stats);
    if (history != nullptr)
      for (std::size_t i = begin; i < end; ++i)
        (*history)[i].push_back(summarize_population(state[i]));
    update_hall_of_fame(state, begin, end, hall_of_fame);
  }
}

Individual best_of_state(const IslandState& state) {
  const Individual* best = nullptr;
  for (const std::vector<Individual>& population : state)
    for (const Individual& ind : population) {
      if (!ind.evaluated)
        throw std::invalid_argument("best_of_state: unevaluated individual");
      if (best == nullptr || ind.fitness > best->fitness) best = &ind;
    }
  if (best == nullptr)
    throw std::invalid_argument("best_of_state: empty state");
  return *best;
}

IslandGaResult run_island_ga(const Problem& problem,
                             const IslandGaConfig& config) {
  validate_island_config(problem, config);
  IslandGaResult result;
  result.final_state.assign(config.plan.islands, {});
  result.history.assign(config.plan.islands, {});
  for (std::vector<GenerationStats>& history : result.history)
    history.reserve(config.ga.generations);
  const std::size_t epochs = epoch_count(config);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch)
    evolve_islands_epoch(problem, config, epoch, result.final_state, 0,
                         config.plan.islands, result.stats, &result.history,
                         &result.best);
  return result;
}

Individual run_winner(const IslandGaConfig& config,
                      const IslandGaResult& result) {
  const bool single_population = config.plan.islands == 1 &&
                                 config.plan.migration_interval == 0 &&
                                 config.seed_genomes.empty();
  return single_population ? result.best : best_of_state(result.final_state);
}

GaResult run_ga(const Problem& problem, const GaConfig& config) {
  validate_ga_config(problem, config, "run_ga");
  IslandGaConfig island_config;
  island_config.ga = config;
  IslandGaResult run = run_island_ga(problem, island_config);
  return {std::move(run.best), std::move(run.history.front()),
          run.stats.evaluations};
}

}  // namespace mcs::ga
