#include "core/objective.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/chebyshev_wcet.hpp"
#include "sched/edf_vd.hpp"

namespace mcs::core {

namespace {

ObjectiveBreakdown finish(double u_hc_lo, double u_hc_hi, double p_ms) {
  ObjectiveBreakdown b;
  b.u_hc_lo = u_hc_lo;
  b.u_hc_hi = u_hc_hi;
  b.p_ms = p_ms;
  b.feasible = u_hc_lo <= 1.0 && u_hc_hi <= 1.0;
  if (!b.feasible) {
    b.max_u_lc = 0.0;
    b.objective = 0.0;
    return b;
  }
  b.max_u_lc = sched::max_lc_utilization(u_hc_lo, u_hc_hi);
  b.objective = (1.0 - b.p_ms) * b.max_u_lc;
  return b;
}

}  // namespace

ObjectiveBreakdown evaluate_multipliers(const mc::TaskSet& tasks,
                                        std::span<const double> n) {
  // One pass and no allocation: this is the GA's fitness function. The
  // Eq. 10 product is folded in task order, as
  // system_mode_switch_probability folds it, so the bits match.
  const auto mismatch = [] {
    return std::invalid_argument(
        "evaluate_multipliers: one multiplier per HC task required");
  };
  double u_hc_lo = 0.0;
  double u_hc_hi = 0.0;
  double no_switch = 1.0;
  std::size_t k = 0;
  for (const mc::McTask& task : tasks) {
    if (task.criticality != mc::Criticality::kHigh) continue;
    if (k == n.size()) throw mismatch();
    if (!task.stats.has_value())
      throw std::invalid_argument(
          "evaluate_multipliers: HC task without execution stats");
    if (n[k] < 0.0)
      throw std::invalid_argument("evaluate_multipliers: n must be >= 0");
    const double acet = task.stats->acet;
    const double sigma = task.stats->sigma;
    const double wcet_lo = chebyshev_wcet_opt(acet, sigma, n[k], task.wcet_hi);
    u_hc_lo += wcet_lo / task.period;
    u_hc_hi += task.wcet_hi / task.period;
    // Effective multiplier after the Eq. 9 clamp.
    const double effective = sigma > 0.0 ? (wcet_lo - acet) / sigma : n[k];
    no_switch *= 1.0 - task_overrun_bound(effective);
    ++k;
  }
  if (k != n.size()) throw mismatch();
  return finish(u_hc_lo, u_hc_hi, 1.0 - no_switch);
}

ObjectiveBreakdown evaluate_current_assignment(const mc::TaskSet& tasks) {
  const double u_hc_lo =
      tasks.utilization(mc::Criticality::kHigh, mc::Mode::kLow);
  const double u_hc_hi =
      tasks.utilization(mc::Criticality::kHigh, mc::Mode::kHigh);
  return finish(u_hc_lo, u_hc_hi,
                system_mode_switch_probability(implied_multipliers(tasks)));
}

}  // namespace mcs::core
