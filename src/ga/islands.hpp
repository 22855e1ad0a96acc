// Island-model layer over the generational GA engine, and the one
// generational loop of the library: run_ga is its single-island run.
//
// N per-island populations evolve independently and exchange their best
// individuals on a fixed schedule (ring topology). The run is organized in
// *epochs*: epoch e covers the generations [e*interval, (e+1)*interval)
// and starts from a fresh counter-based RNG stream, so an epoch is a pure
// function of (full previous state, island index, epoch number). That is
// what makes the layer shardable: a process owning islands [b, e) of one
// epoch produces exactly the rows the unsharded run would, provided it can
// read the full end-of-previous-epoch state (migration reads the ring
// neighbour, which may live outside the shard).
//
// Determinism contract (same as the rest of the repo):
//  * island i's base seed is index_seed(ga.seed, i) — except islands == 1,
//    which uses ga.seed directly, so `islands=1, migration_interval=0` is
//    run_ga;
//  * epoch e > 0 reseeds island i from index_seed(base, e); no RNG state
//    crosses an epoch boundary;
//  * migration replaces the worst-K residents of island i with copies of
//    the top-K of island i-1 (mod N), all read from the pre-epoch state;
//  * each generation's unevaluated members are evaluated in place through
//    one parallel_for; every call writes only its own member, so counts
//    and bits are --jobs-invariant.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ga/engine.hpp"

namespace mcs::ga {

/// Island topology knobs, carried separately from GaConfig so callers
/// (core/optimizer, optimize_ml_ga, the CLI) can default them to the
/// monolithic single-population behaviour.
struct IslandPlan {
  std::size_t islands = 1;             ///< number of populations
  std::size_t migration_interval = 0;  ///< generations per epoch; 0 = never
  std::size_t migrants = 2;            ///< top-K exchanged at each boundary
};

/// Full configuration of an island run.
struct IslandGaConfig {
  GaConfig ga;      ///< per-island hyper-parameters; ga.seed is the base seed
  IslandPlan plan;
  /// Warm-start genomes injected into every island's initial population
  /// (overwriting the last members after the usual random draws, so the
  /// RNG stream is unchanged). Genomes are adapted to the problem: only
  /// the first min(dimension, genome length) genes are copied onto the
  /// random member, then clamped to bounds — neighbouring sweep cells may
  /// have a different HC-task count.
  std::vector<Genome> seed_genomes;
};

/// Cost counters of an island run.
struct IslandStats {
  std::size_t evaluations = 0;  ///< Problem::evaluate calls performed
  /// Always 0: the island engine keeps no fitness memo. Kept only because
  /// the benchmark harness still reports it as `ga.cache_hits`.
  std::size_t cache_hits = 0;
  std::size_t migrations = 0;  ///< immigrant individuals applied
};

/// Per-island populations, indexed [island][member].
using IslandState = std::vector<std::vector<Individual>>;

/// Result of an island run.
struct IslandGaResult {
  Individual best;          ///< hall of fame: first of maximal fitness
  IslandState final_state;  ///< end-of-run populations
  std::vector<std::vector<GenerationStats>> history;  ///< per island
  IslandStats stats;
};

/// Base RNG seed of island `island` (see the determinism contract above).
[[nodiscard]] std::uint64_t island_seed(const IslandGaConfig& config,
                                        std::size_t island);

/// Number of epochs the run is divided into (>= 1).
[[nodiscard]] std::size_t epoch_count(const IslandGaConfig& config);

/// Generation span [begin, end) covered by `epoch`.
[[nodiscard]] std::pair<std::size_t, std::size_t> epoch_generations(
    const IslandGaConfig& config, std::size_t epoch);

/// Evolves islands [begin, end) of `state` through one epoch: for
/// epoch 0, draws fresh random populations (plus seed-genome injection);
/// for epoch > 0, first applies the ring migration due at the boundary
/// (reading emigrants from the full pre-epoch `state`), then runs the
/// epoch's generations in lockstep, evaluating each generation in place.
/// Only rows [begin, end) of `state` are written; for epoch > 0 every
/// island of `state` must hold an evaluated population of the configured
/// size (shards read the full merged previous state). `history`, when
/// non-null, receives one GenerationStats per generation per owned
/// island; `hall_of_fame`, when non-null, tracks the first individual of
/// maximal fitness ever seen.
void evolve_islands_epoch(const Problem& problem, const IslandGaConfig& config,
                          std::size_t epoch, IslandState& state,
                          std::size_t begin, std::size_t end,
                          IslandStats& stats,
                          std::vector<std::vector<GenerationStats>>* history,
                          Individual* hall_of_fame);

/// First individual with maximal fitness, scanning islands then members
/// (the deterministic tie-break shared by the in-process run and the
/// sharded --finalize path). Requires a non-empty, evaluated state.
[[nodiscard]] Individual best_of_state(const IslandState& state);

/// Runs the whole island GA in process: all islands, all epochs.
[[nodiscard]] IslandGaResult run_island_ga(const Problem& problem,
                                           const IslandGaConfig& config);

/// The winner of a finished run_island_ga. A plain single-population run
/// (plan {1 island, interval 0}, no seed genomes) returns the hall-of-fame
/// `best`, as run_ga does; every other run returns best_of_state of the
/// final populations, the only rule the sharded --finalize path can apply.
/// The two rules can pick different genomes of equal fitness.
[[nodiscard]] Individual run_winner(const IslandGaConfig& config,
                                    const IslandGaResult& result);

/// Result of run_ga.
struct GaResult {
  Individual best;                       ///< hall-of-fame individual
  std::vector<GenerationStats> history;  ///< one entry per generation
  std::size_t evaluations = 0;           ///< fitness calls performed
};

/// Runs the generational GA on `problem`, maximizing fitness: the
/// single-island, single-epoch run_island_ga (plan {1, 0}, no seed
/// genomes). Requires population_size >= 2 and dimension >= 1.
[[nodiscard]] GaResult run_ga(const Problem& problem, const GaConfig& config);

}  // namespace mcs::ga
