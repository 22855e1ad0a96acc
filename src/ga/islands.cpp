#include "ga/islands.hpp"

#include <algorithm>
#include <cstring>
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

/// Memoized batched evaluation of every unevaluated individual in islands
/// [begin, end). Classification (hit / pending duplicate / miss) runs
/// sequentially on the caller thread in island-major member-minor order,
/// so the hit and miss counts are identical at every --jobs value; only
/// the de-duplicated miss batch fans out to the pool, and results land by
/// slot index. Pending duplicates (the same new genome appearing several
/// times in one batch, e.g. a migrated elite cloned by selection) count
/// as hits: they share the slot and pay for one evaluation.
void evaluate_islands(IslandState& state, std::size_t begin, std::size_t end,
                      const Problem& problem, GenomeFitCache& cache,
                      IslandStats& stats) {
  struct Ref {
    std::size_t island, member, slot;
  };
  constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::vector<Ref> refs;
  std::vector<const Genome*> batch;
  // Slots of the new genomes within `batch`, bucketed by genome hash, for
  // spotting in-batch duplicates.
  std::unordered_map<std::size_t, std::vector<std::size_t>> slot_by_hash;
  auto find_slot = [&](const Genome& g) {
    const auto it = slot_by_hash.find(GenomeFitCache::BitsHash{}(g));
    if (it != slot_by_hash.end())
      for (const std::size_t slot : it->second)
        if (GenomeFitCache::BitsEqual{}(*batch[slot], g)) return slot;
    return kNoSlot;
  };
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < state[i].size(); ++j) {
      Individual& ind = state[i][j];
      if (ind.evaluated) continue;
      if (const double* hit = cache.find(ind.genes)) {
        ind.fitness = *hit;
        ind.evaluated = true;
        ++stats.cache_hits;
        continue;
      }
      std::size_t slot = find_slot(ind.genes);
      if (slot != kNoSlot) {
        ++stats.cache_hits;
      } else {
        slot = batch.size();
        slot_by_hash[GenomeFitCache::BitsHash{}(ind.genes)].push_back(slot);
        batch.push_back(&ind.genes);
        ++stats.cache_misses;
      }
      refs.push_back({i, j, slot});
    }
  }
  if (batch.empty()) return;
  const std::vector<double> fitness =
      common::parallel_map(batch.size(), [&](std::size_t k) {
        return sanitize_fitness(problem.evaluate(*batch[k]));
      });
  stats.evaluations += batch.size();
  for (std::size_t k = 0; k < batch.size(); ++k)
    cache.insert(*batch[k], fitness[k]);
  for (const Ref& ref : refs) {
    state[ref.island][ref.member].fitness = fitness[ref.slot];
    state[ref.island][ref.member].evaluated = true;
  }
}

/// run_ga-compatible hall-of-fame update over islands [begin, end):
/// starting from unset, the first individual seeds it and later ones
/// replace it only on strictly greater fitness (first-of-equals wins).
void update_hall_of_fame(const IslandState& state, std::size_t begin,
                         std::size_t end, Individual* best) {
  if (best == nullptr) return;
  for (std::size_t i = begin; i < end; ++i)
    for (const Individual& ind : state[i])
      if (!best->evaluated || ind.fitness > best->fitness) *best = ind;
}

}  // namespace

std::size_t GenomeFitCache::BitsHash::operator()(const Genome& g)
    const noexcept {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const double x : g) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return static_cast<std::size_t>(h);
}

bool GenomeFitCache::BitsEqual::operator()(const Genome& a,
                                           const Genome& b) const noexcept {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

const double* GenomeFitCache::find(const Genome& genes) const {
  const auto it = map_.find(genes);
  return it == map_.end() ? nullptr : &it->second;
}

void GenomeFitCache::insert(const Genome& genes, double fitness) {
  map_.try_emplace(genes, fitness);
}

std::uint64_t island_seed(const IslandGaConfig& config, std::size_t island) {
  // A single island keeps the raw seed so `islands=1, interval=0` is
  // bit-identical to run_ga(config.ga).
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
                          GenomeFitCache& cache, IslandStats& stats,
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
    evaluate_islands(state, begin, end, problem, cache, stats);
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
    evaluate_islands(state, begin, end, problem, cache, stats);
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
  GenomeFitCache cache;
  const std::size_t epochs = epoch_count(config);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch)
    evolve_islands_epoch(problem, config, epoch, result.final_state, 0,
                         config.plan.islands, cache, result.stats,
                         &result.history, &result.best);
  return result;
}

}  // namespace mcs::ga
