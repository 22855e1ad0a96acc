// Aggregate statistics reported by a simulation run.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace mcs::sim {

/// Per-task counters and response-time statistics.
///
/// Job accounting invariant (checked by the simulation oracle tests):
/// every released job is eventually counted exactly once, so
///   released == completed + dropped + pending_at_horizon.
///
/// Deadline-miss accounting semantics (pinned by the sim oracle tests):
/// an LC job rejected *at release* while the system is in HI mode under
/// LcPolicy::kDropAll never entered the ready queue, so it counts as a
/// drop only — not a deadline miss. A job that entered the queue and then
/// expired past its deadline counts both a miss and a drop. Deadline-miss
/// counts therefore measure failures of *admitted* work (what the
/// scheduler accepted and then could not finish in time), while drop
/// counts measure all lost work, including load the HI-mode policy shed
/// by design.
struct TaskSimStats {
  std::uint64_t released = 0;
  std::uint64_t completed = 0;
  /// Jobs removed without completing: rejected at release, discarded at a
  /// mode switch, abandoned on budget exhaustion, or expired past their
  /// deadline while pending.
  std::uint64_t dropped = 0;
  /// Deadline misses attributed to this task (late completions and
  /// pending-job expiries).
  std::uint64_t deadline_misses = 0;
  /// Jobs still in the ready queue when the simulation horizon ended.
  std::uint64_t pending_at_horizon = 0;
  common::Millis max_response = 0.0;    ///< worst observed response time
  common::Millis total_response = 0.0;  ///< sum over completed jobs
  /// Approximate response-time percentiles (0 unless the simulation ran
  /// with SimConfig::response_reservoir > 0; NaN when the reservoir was
  /// on but the task completed no job — renderers emit an empty cell).
  common::Millis p95_response = 0.0;
  common::Millis p99_response = 0.0;

  /// Mean response time over completed jobs (0 when none completed).
  [[nodiscard]] common::Millis mean_response() const {
    return completed == 0 ? 0.0
                          : total_response / static_cast<double>(completed);
  }
};

/// Counters and derived rates from one simulated horizon.
struct SimMetrics {
  common::Millis horizon = 0.0;       ///< simulated duration
  common::Millis busy_time = 0.0;     ///< processor non-idle time
  common::Millis hi_mode_time = 0.0;  ///< time spent in HI mode

  std::uint64_t hc_jobs_released = 0;
  std::uint64_t hc_jobs_completed = 0;
  std::uint64_t hc_jobs_overrun = 0;  ///< HC jobs that exceeded C^LO
  std::uint64_t hc_deadline_misses = 0;

  std::uint64_t lc_jobs_released = 0;
  std::uint64_t lc_jobs_completed = 0;
  std::uint64_t lc_jobs_dropped = 0;  ///< dropped/rejected due to HI mode
  std::uint64_t lc_jobs_degraded = 0; ///< completed with degraded budget
  std::uint64_t lc_deadline_misses = 0;

  std::uint64_t mode_switches = 0;    ///< LO -> HI transitions
  std::uint64_t context_switches = 0; ///< dispatches of a different job

  /// Indexed like the simulated task set.
  std::vector<TaskSimStats> per_task;

  /// Fraction of HC jobs that overran C^LO (empirical per-job P^MS).
  [[nodiscard]] double hc_overrun_rate() const {
    return hc_jobs_released == 0
               ? 0.0
               : static_cast<double>(hc_jobs_overrun) /
                     static_cast<double>(hc_jobs_released);
  }

  /// Fraction of LC jobs lost to mode switches.
  [[nodiscard]] double lc_drop_rate() const {
    return lc_jobs_released == 0
               ? 0.0
               : static_cast<double>(lc_jobs_dropped) /
                     static_cast<double>(lc_jobs_released);
  }

  /// Fraction of simulated time in HI mode.
  [[nodiscard]] double hi_mode_fraction() const {
    return horizon <= 0.0 ? 0.0 : hi_mode_time / horizon;
  }

  /// Processor utilization actually observed.
  [[nodiscard]] double observed_utilization() const {
    return horizon <= 0.0 ? 0.0 : busy_time / horizon;
  }
};

}  // namespace mcs::sim
