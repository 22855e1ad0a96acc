// Processor-demand analysis (demand-bound functions) for EDF.
//
// The utilization test of edf.hpp is exact only for implicit deadlines;
// for constrained deadlines (D <= T) EDF feasibility on one processor is
// equivalent to the processor-demand criterion (Baruah/Rosier/Howell):
//     for all t > 0:  dbf(t) = sum_i max(0, floor((t - D_i)/T_i) + 1) * C_i
//                     <= t.
// Only deadline instants up to a bounded horizon need checking; we use
// the classic busy-period / La-style bound together with the hyperperiod
// cap. This extends the library beyond the paper's implicit-deadline
// model (a natural "library completeness" feature the EDF-VD analysis can
// build on later).
//
// The scan runs in exact integer arithmetic. Each task is converted once
// to int64 ticks of 1 ps (kDbfTicksPerMs per ms of the time base), with
// C rounded up and D and T rounded down, so the tick model's demand
// dominates the real one at every t and its exact verdict is sound with
// no tolerance. dbf(t) is then a running sum: popping task i's deadline
// instant adds C_i. The horizon plan (overload test, La bound) stays in
// double over the real task values.
//
// Because the sums are exact, they can also be taken apart again: a
// DemandProfile records every distinct instant with its dbf, and
// dbf_apply adds (+1) or subtracts (-1) one task's demand over it. The
// incremental admission controller (core/admission) rides on that, and
// its verdicts equal a from-scratch dbf_scan by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mc/taskset.hpp"

namespace mcs::sched {

/// Utilization tolerance of the horizon plan: U > 1 + eps is overloaded,
/// U >= 1 - eps takes the hyperperiod horizon.
inline constexpr double kDbfEps = 1e-9;

/// Hard cap on checked deadline instants: when the analysis horizon (the
/// hyperperiod for U ≈ 1 sets) needs more points than this, the test
/// reports "inconclusive" rather than spending unbounded time — it never
/// claims schedulability it has not verified.
inline constexpr std::size_t kDbfPointBudget = 200'000;

/// Scan resolution: 1 tick = 1 ps of the ms time base.
inline constexpr double kDbfTicksPerMs = 1e9;

/// dbf(t) in the given mode: total execution demand of jobs with both
/// release and deadline inside any window of length t (real-valued, with
/// a kDbfEps guard at the steps). Requires t >= 0.
[[nodiscard]] double demand_bound(const mc::TaskSet& tasks, double t,
                                  mc::Mode mode);

/// Outcome of the processor-demand test.
struct DbfResult {
  bool schedulable = false;
  /// True when the analysis could not cover the full horizon: the point
  /// budget bound first (U ≈ 1 sets whose hyperperiod cannot be bounded
  /// or is too large to scan), or a value or the horizon does not fit in
  /// int64 ticks. No violation was found, but schedulability is NOT
  /// established — callers must not treat this as schedulable.
  bool inconclusive = false;
  /// First failing deadline instant, ms (meaningful when !schedulable).
  double violation_time = 0.0;
  /// dbf at the violation, ms (meaningful when !schedulable).
  double violation_demand = 0.0;
  /// Number of distinct deadline instants checked.
  std::size_t points_checked = 0;
};

/// Per-task terms of the demand scan, converted once: the plan's real
/// utilization addends and the scan's tick values. A tick value within
/// 1e-12 relative of a whole tick snaps to it; otherwise C rounds up and
/// D and T round down.
struct DbfTaskTerms {
  double util = 0.0;          ///< C / T
  double laxity_util = 0.0;   ///< (T - D) * C / T, for La
  std::int64_t wcet = 0;      ///< C in ticks
  std::int64_t deadline = 0;  ///< D in ticks
  std::int64_t period = 0;    ///< T in ticks
  /// False when C, D or T does not fit in int64 ticks (or D or T is
  /// below one tick): any scan over the term is inconclusive.
  bool fits = false;
};

/// Terms of one (C, D, T) triple in ms.
[[nodiscard]] DbfTaskTerms dbf_terms(double wcet, double deadline,
                                     double period);

/// Terms of one task in the given mode.
[[nodiscard]] DbfTaskTerms dbf_terms(const mc::McTask& task, mc::Mode mode);

/// Exact demand profile of one term set: every distinct deadline instant
/// up to `horizon` in increasing order, with the set's dbf there and the
/// number of tasks that have a deadline at it.
struct DemandProfile {
  struct Step {
    std::int64_t time = 0;     ///< ticks
    std::int64_t demand = 0;   ///< dbf(time), ticks
    std::uint32_t owners = 0;  ///< tasks with a deadline at `time`
  };
  std::vector<Step> steps;
  std::int64_t horizon = 0;  ///< scan horizon of the set, ticks
  /// True when the scan reached the horizon: `steps` holds every instant
  /// up to it, none of them violated. Only a complete profile can be
  /// updated by dbf_apply.
  bool complete = false;
};

/// The processor-demand scan over precomputed terms (the loop of
/// edf_dbf_test). With `profile`, records the scanned instants.
[[nodiscard]] DbfResult dbf_scan(std::span<const DbfTaskTerms> terms,
                                 DemandProfile* profile = nullptr);

/// The same verdict as dbf_scan(terms, profile), computed from the
/// profile of a neighbouring set: `base` profiles `terms` without
/// `changed` (sign +1, the task joined) or with it (sign -1, the task
/// left). Walks base's instants merged with changed's deadlines and
/// scans from scratch only the stretch past base's horizon, or the whole
/// set when `base` is incomplete. `profile` must not alias `base`.
[[nodiscard]] DbfResult dbf_apply(const DemandProfile& base,
                                  std::span<const DbfTaskTerms> terms,
                                  const DbfTaskTerms& changed, int sign,
                                  DemandProfile* profile);

/// Exact EDF feasibility for periodic constrained-deadline tasks in the
/// given mode. Tasks with utilization sum > 1 are rejected immediately;
/// otherwise every absolute deadline up to the analysis horizon is
/// checked (for U < 1 the classic La busy-period bound; for U ≈ 1 the
/// hyperperiod plus the largest deadline, guarded by a point budget that
/// reports `inconclusive` when it binds). Requires a valid task set.
[[nodiscard]] DbfResult edf_dbf_test(const mc::TaskSet& tasks, mc::Mode mode);

}  // namespace mcs::sched
