// Demand-based EDF-VD schedulability: deadline tightening over the
// demand-bound criterion (Easwaran / Ekberg-Yi style), as an alternative
// backend to the paper's Eq. 8 utilization test.
//
// EDF-VD runs every HC task against the virtual deadline x*D_i in LO
// mode so that, at a mode switch, each HC job has at least (1-x)*D_i of
// its true deadline left for the C^HI budget. Instead of the aggregate
// utilization conditions of Eq. 8 (exact only for implicit deadlines and
// pessimistic through the carry-over term), this backend checks the two
// modes with the processor-demand criterion directly:
//
//   LO mode:  dbf over { HC: (C^LO, x*D, T),  LC: (C^LO, D, T) } <= t
//   HI mode:  dbf over { HC: (C^HI, (1-x)*D, T) }                <= t
//
// The HI-mode terms charge every HC job the full C^HI against the
// post-switch window (1-x)*D — a sufficient (conservative) carry-over
// treatment: a job released before the switch has at least (1-x)*D time
// units between its virtual and true deadline, and jobs after the switch
// have D >= (1-x)*D. LC tasks are dropped at the switch (Baruah's
// drop-all model, matching edf_vd_test).
//
// A finite grid of x candidates is searched; any x passing both scans is
// a certificate. Because passing the tightened-deadline LO scan implies
// passing the true-deadline one (dbf with earlier deadlines dominates
// pointwise), everything this test admits has truly feasible LO-mode
// demand, so a demand-admitted resident set is never known-infeasible.
#pragma once

#include <cstddef>

#include "mc/taskset.hpp"

namespace mcs::sched {

/// Outcome of the demand-based EDF-VD test.
struct DemandVdResult {
  bool schedulable = false;
  /// Virtual-deadline factor certificate (meaningful when schedulable;
  /// 1.0 when the set passes without tightening, e.g. no HC tasks).
  double x = 1.0;
  /// True when the Eq. 8 utilization shortcut already accepted (the grid
  /// search never ran; x is Eq. 8's factor).
  bool via_eq8 = false;
  /// True when at least one grid point's scan ran out of its point
  /// budget and no other point accepted — schedulability could neither
  /// be established nor refuted.
  bool inconclusive = false;
};

/// Default number of grid points for the x search (x = k/grid,
/// k = 1..grid-1).
inline constexpr std::size_t kDemandVdGrid = 24;

/// Pure grid search over x (never consults Eq. 8). Requires a valid task
/// set and grid >= 2. Returns the smallest passing x on the grid.
[[nodiscard]] DemandVdResult edf_vd_demand_search(
    const mc::TaskSet& tasks, std::size_t grid = kDemandVdGrid);

/// The demand backend entry point: on all-implicit-deadline sets the
/// Eq. 8 test runs first (it is exact for that model and cheap); when it
/// rejects — or any task has a constrained deadline — the grid search
/// decides. Accepts a superset of edf_vd_test on implicit-deadline sets
/// by construction.
[[nodiscard]] DemandVdResult edf_vd_demand_test(
    const mc::TaskSet& tasks, std::size_t grid = kDemandVdGrid);

}  // namespace mcs::sched
