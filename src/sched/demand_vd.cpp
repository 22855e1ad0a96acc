#include "sched/demand_vd.hpp"

#include <stdexcept>
#include <vector>

#include "sched/dbf.hpp"
#include "sched/edf_vd.hpp"

namespace mcs::sched {

namespace {

/// Both mode scans at one virtual-deadline factor.
struct GridPointOutcome {
  bool schedulable = false;
  bool inconclusive = false;
};

GridPointOutcome check_factor(const mc::TaskSet& tasks, double x) {
  std::vector<DbfTaskTerms> lo_terms;
  std::vector<DbfTaskTerms> hi_terms;
  lo_terms.reserve(tasks.size());
  for (const mc::McTask& task : tasks) {
    const double deadline = task.deadline();
    if (task.criticality == mc::Criticality::kHigh) {
      lo_terms.push_back(dbf_terms(task.wcet_lo, x * deadline,
                                   task.period));
      hi_terms.push_back(dbf_terms(task.wcet_hi, (1.0 - x) * deadline,
                                   task.period));
    } else {
      lo_terms.push_back(dbf_terms(task.wcet_lo, deadline, task.period));
    }
  }
  const DbfResult lo = dbf_scan(lo_terms);
  GridPointOutcome outcome;
  outcome.inconclusive = lo.inconclusive;
  if (!lo.schedulable) return outcome;
  const DbfResult hi = dbf_scan(hi_terms);
  outcome.inconclusive = hi.inconclusive;
  outcome.schedulable = hi.schedulable;
  return outcome;
}

}  // namespace

DemandVdResult edf_vd_demand_search(const mc::TaskSet& tasks,
                                    std::size_t grid) {
  if (!tasks.valid())
    throw std::invalid_argument("edf_vd_demand_search: invalid task set");
  if (grid < 2)
    throw std::invalid_argument("edf_vd_demand_search: grid must be >= 2");

  DemandVdResult result;
  if (tasks.count(mc::Criticality::kHigh) == 0) {
    // No HC task: no mode switch exists, LO-mode EDF feasibility at the
    // true deadlines decides.
    std::vector<DbfTaskTerms> lo_terms;
    lo_terms.reserve(tasks.size());
    for (const mc::McTask& task : tasks)
      lo_terms.push_back(dbf_terms(task, mc::Mode::kLow));
    const DbfResult lo = dbf_scan(lo_terms);
    result.schedulable = lo.schedulable;
    result.inconclusive = lo.inconclusive;
    result.x = 1.0;
    return result;
  }

  bool any_inconclusive = false;
  for (std::size_t k = 1; k < grid; ++k) {
    const double x = static_cast<double>(k) / static_cast<double>(grid);
    const GridPointOutcome outcome = check_factor(tasks, x);
    if (outcome.schedulable) {
      result.schedulable = true;
      result.x = x;
      return result;
    }
    any_inconclusive = any_inconclusive || outcome.inconclusive;
  }
  result.inconclusive = any_inconclusive;
  return result;
}

DemandVdResult edf_vd_demand_test(const mc::TaskSet& tasks,
                                  std::size_t grid) {
  if (!tasks.valid())
    throw std::invalid_argument("edf_vd_demand_test: invalid task set");
  bool all_implicit = true;
  for (const mc::McTask& task : tasks)
    all_implicit = all_implicit && task.implicit_deadline();
  if (all_implicit) {
    const EdfVdResult eq8 = edf_vd_test(tasks);
    if (eq8.schedulable) {
      DemandVdResult result;
      result.schedulable = true;
      result.x = eq8.x;
      result.via_eq8 = true;
      return result;
    }
  }
  return edf_vd_demand_search(tasks, grid);
}

}  // namespace mcs::sched
