// Streaming aggregation of simulation metrics for million-set campaigns.
//
// A campaign cell (one utilization point) may simulate 10^5..10^7 task
// sets; materializing one SimMetrics row per set would make the result
// O(sets). SimMetricsAccumulator folds each run into summed counters plus
// Welford accumulators (common/stats_accumulator.hpp) over the per-set
// rates, so a cell stays O(1) regardless of how many sets feed it and
// shards merge by concatenation/merge without revisiting raw rows.
#pragma once

#include <cstdint>

#include "common/stats_accumulator.hpp"
#include "sim/metrics.hpp"

namespace mcs::sim {

/// Order-sensitive streaming reduction over SimMetrics. Add runs in index
/// order (or merge block accumulators in index order) for bit-identical
/// results at any parallelism.
struct SimMetricsAccumulator {
  std::uint64_t sets = 0;  ///< simulations folded in

  // Summed job counters over all sets.
  std::uint64_t hc_jobs_released = 0;
  std::uint64_t hc_jobs_completed = 0;
  std::uint64_t hc_jobs_overrun = 0;
  std::uint64_t hc_deadline_misses = 0;
  std::uint64_t lc_jobs_released = 0;
  std::uint64_t lc_jobs_completed = 0;
  std::uint64_t lc_jobs_dropped = 0;
  std::uint64_t lc_jobs_degraded = 0;
  std::uint64_t lc_deadline_misses = 0;
  std::uint64_t mode_switches = 0;
  std::uint64_t context_switches = 0;
  double busy_time = 0.0;
  double hi_mode_time = 0.0;
  double horizon = 0.0;  ///< summed simulated time

  // Per-set rate distributions (mean/stddev/min/max across sets).
  common::StatsAccumulator hc_overrun_rate;
  common::StatsAccumulator lc_drop_rate;
  common::StatsAccumulator hi_mode_fraction;
  common::StatsAccumulator observed_utilization;

  /// Folds one simulation's metrics in.
  void add(const SimMetrics& m);

  /// Merges another accumulator (parallel block reduction).
  void merge(const SimMetricsAccumulator& other);
};

}  // namespace mcs::sim
