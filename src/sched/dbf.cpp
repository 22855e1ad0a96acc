#include "sched/dbf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace mcs::sched {

namespace {

/// Saturation value of tick sums; no representable horizon reaches it.
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// `ms` in ticks: snapped to the nearest tick when within 1e-12 relative
/// of it, otherwise rounded up or down; -1 when it does not fit in int64.
std::int64_t to_ticks(double ms, bool round_up) {
  const double x = ms * kDbfTicksPerMs;
  if (!(x >= 0.0) || x >= 0x1p63) return -1;
  const double nearest = std::round(x);
  if (std::abs(x - nearest) <= 1e-12 * x)
    return static_cast<std::int64_t>(nearest);
  return static_cast<std::int64_t>(round_up ? std::ceil(x) : std::floor(x));
}

/// a + b for non-negative tick values, saturating at kNever.
std::int64_t add(std::int64_t a, std::int64_t b) {
  std::int64_t sum;
  return __builtin_add_overflow(a, b, &sum) ? kNever : sum;
}

/// Hyperperiod (lcm) of the tick periods; 0 when it exceeds `cap` —
/// callers must then treat the horizon as unbounded.
std::int64_t hyperperiod(std::span<const DbfTaskTerms> terms,
                         std::int64_t cap) {
  std::int64_t lcm = 1;
  for (const DbfTaskTerms& term : terms) {
    const std::int64_t step = term.period / std::gcd(lcm, term.period);
    if (lcm > cap / step) return 0;
    lcm *= step;
  }
  return lcm;
}

/// Horizon decision of one scan.
struct ScanPlan {
  bool overloaded = false;    ///< U > 1 + eps: reject, nothing to scan
  bool exact = true;          ///< false: the horizon cannot conclude
  std::int64_t horizon = -1;  ///< ticks; -1: does not fit, inconclusive
};

ScanPlan plan_scan(std::span<const DbfTaskTerms> terms) {
  ScanPlan plan;
  double total_util = 0.0;
  double weighted_laxity = 0.0;  // sum (T_i - D_i) * U_i, for the La bound
  std::int64_t max_deadline = 0;
  std::int64_t min_period = kNever;
  bool fits = true;
  for (const DbfTaskTerms& term : terms) {
    total_util += term.util;
    weighted_laxity += term.laxity_util;
    max_deadline = std::max(max_deadline, term.deadline);
    min_period = std::min(min_period, term.period);
    fits = fits && term.fits;
  }
  if (total_util > 1.0 + kDbfEps) {
    plan.overloaded = true;  // necessary condition fails, nothing to scan
    return plan;
  }
  if (!fits) return plan;

  // Analysis horizon: for U < 1 the classic bound
  //   La = max(max D_i, weighted_laxity / (1 - U))
  // suffices. For U ≈ 1 no finite La exists and the synchronous pattern
  // only repeats after a full hyperperiod: dbf(t + H) = dbf(t) + H·U for
  // every t >= max D_i, so checking all deadlines in (0, max D_i + H]
  // covers every later instant. (A previous version used the sum of
  // periods here, which is NOT a safe over-approximation — the first
  // violation of a U = 1 constrained-deadline set can lie far beyond it;
  // see EdfDbf.ViolationBeyondPeriodSumIsFound.)
  //
  // Up to max D + budget·min T the shortest-period task alone has
  // budget + 1 deadlines, so no scan ever completes past that bound. It
  // clamps La without changing a verdict, and caps the hyperperiod: when
  // the lcm exceeds it, the scan runs into the point budget and reports
  // "inconclusive" instead of claiming schedulability.
  std::int64_t budget_span;
  if (__builtin_mul_overflow(min_period,
                             static_cast<std::int64_t>(kDbfPointBudget),
                             &budget_span))
    budget_span = kNever;
  const std::int64_t budget_horizon = add(max_deadline, budget_span);
  std::int64_t horizon;
  if (total_util < 1.0 - kDbfEps) {
    const std::int64_t la =
        to_ticks(weighted_laxity / (1.0 - total_util), false);
    horizon = std::min(la < 0 ? kNever : std::max(max_deadline, la),
                       budget_horizon);
  } else {
    const std::int64_t hp = hyperperiod(terms, budget_span);
    plan.exact = hp > 0;
    horizon = plan.exact ? add(max_deadline, hp) : budget_horizon;
  }
  plan.horizon = horizon == kNever ? -1 : horizon;
  return plan;
}

/// The check at each distinct deadline instant, in increasing time
/// order: point budget, profile record, dbf(t) <= t. Returns false when
/// the scan must stop.
struct Checker {
  DbfResult* result;
  DemandProfile* profile;

  bool operator()(std::int64_t time, std::int64_t demand,
                  std::uint32_t owners) const {
    if (result->points_checked >= kDbfPointBudget) {
      result->inconclusive = true;
      return false;
    }
    ++result->points_checked;
    if (profile) profile->steps.push_back({time, demand, owners});
    if (demand <= time) return true;
    result->violation_time = static_cast<double>(time) / kDbfTicksPerMs;
    result->violation_demand = static_cast<double>(demand) / kDbfTicksPerMs;
    return false;
  }
};

/// Checks the deadline instants of `terms` in (after, horizon], given
/// the set's dbf at `after`: a heap merges the per-task deadline
/// sequences, and each popped deadline adds its task's C.
bool scan_from(std::span<const DbfTaskTerms> terms, std::int64_t after,
               std::int64_t horizon, std::int64_t demand,
               const Checker& check) {
  struct Next {
    std::int64_t time;
    std::size_t task;
  };
  const auto later = [](const Next& a, const Next& b) {
    return a.time > b.time;
  };
  std::vector<Next> heap;
  heap.reserve(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const DbfTaskTerms& term = terms[i];
    std::int64_t first = term.deadline;
    if (first <= after) {
      first += (after - first) / term.period * term.period;
      if (term.period > horizon - first) continue;
      first += term.period;
    }
    if (first <= horizon) heap.push_back({first, i});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    const std::int64_t time = heap.front().time;
    std::uint32_t owners = 0;
    do {
      std::pop_heap(heap.begin(), heap.end(), later);
      Next& next = heap.back();
      const DbfTaskTerms& term = terms[next.task];
      demand = add(demand, term.wcet);
      ++owners;
      if (term.period <= horizon - time) {
        next.time = time + term.period;
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        heap.pop_back();
      }
    } while (!heap.empty() && heap.front().time == time);
    if (!check(time, demand, owners)) return false;
  }
  return true;
}

/// Walks base's instants up to `end` merged with changed's deadlines,
/// adding (sign +1) or subtracting (sign -1) changed's demand; an instant
/// that only the departed task owned drops out. `demand` receives the
/// new set's dbf at `end`.
bool merge(const DemandProfile& base, const DbfTaskTerms& changed, int sign,
           std::int64_t end, const Checker& check, std::int64_t* demand) {
  std::int64_t own_next = changed.deadline;
  std::int64_t own = 0;  // changed's demand up to the current instant
  std::int64_t old = 0;  // base's dbf at the last base instant passed
  auto step = base.steps.begin();
  for (;;) {
    const std::int64_t t_base =
        step != base.steps.end() && step->time <= end ? step->time : kNever;
    const std::int64_t t_own = own_next <= end ? own_next : kNever;
    const std::int64_t time = std::min(t_base, t_own);
    if (time == kNever) break;
    std::int64_t owners = 0;
    if (t_base == time) {
      old = step->demand;
      owners = step->owners;
      ++step;
    }
    if (t_own == time) {
      own = add(own, changed.wcet);
      owners += sign;
      own_next = changed.period <= end - time ? time + changed.period : kNever;
    }
    if (owners == 0) continue;
    if (!check(time, sign > 0 ? add(old, own) : old - own,
               static_cast<std::uint32_t>(owners)))
      return false;
  }
  *demand = sign > 0 ? add(old, own) : old - own;
  return true;
}

/// dbf_scan when `base` is null, dbf_apply otherwise.
DbfResult run(const DemandProfile* base, std::span<const DbfTaskTerms> terms,
              const DbfTaskTerms& changed, int sign, DemandProfile* profile) {
  DbfResult result;
  if (profile) {
    profile->steps.clear();
    profile->horizon = 0;
    profile->complete = false;
  }
  if (terms.empty()) {
    result.schedulable = true;
    if (profile) profile->complete = true;
    return result;
  }
  const ScanPlan plan = plan_scan(terms);
  if (plan.overloaded) return result;
  if (plan.horizon < 0) {
    result.inconclusive = true;
    return result;
  }
  if (profile) profile->horizon = plan.horizon;

  const Checker check{&result, profile};
  std::int64_t after = 0;
  std::int64_t demand = 0;
  if (base) {
    if (!merge(*base, changed, sign, std::min(base->horizon, plan.horizon),
               check, &demand))
      return result;
    after = base->horizon;
  }
  if (plan.horizon > after &&
      !scan_from(terms, after, plan.horizon, demand, check))
    return result;
  // The scan reached the horizon, so the profile covers every instant —
  // even when the capped horizon proves nothing.
  if (profile) profile->complete = true;
  if (plan.exact) {
    result.schedulable = true;
  } else {
    result.inconclusive = true;
  }
  return result;
}

}  // namespace

DbfTaskTerms dbf_terms(double wcet, double deadline, double period) {
  DbfTaskTerms term;
  term.util = wcet / period;
  term.laxity_util = (period - deadline) * term.util;
  term.wcet = to_ticks(wcet, true);
  term.deadline = to_ticks(deadline, false);
  term.period = to_ticks(period, false);
  term.fits = term.wcet >= 0 && term.deadline >= 1 && term.period >= 1;
  return term;
}

DbfTaskTerms dbf_terms(const mc::McTask& task, mc::Mode mode) {
  return dbf_terms(task.wcet(mode), task.deadline(), task.period);
}

double demand_bound(const mc::TaskSet& tasks, double t, mc::Mode mode) {
  if (t < 0.0)
    throw std::invalid_argument("demand_bound: t must be >= 0");
  double demand = 0.0;
  for (const mc::McTask& task : tasks) {
    const double deadline = task.deadline();
    if (t + kDbfEps < deadline) continue;
    const double jobs =
        std::floor((t - deadline) / task.period + kDbfEps) + 1.0;
    demand += jobs * task.wcet(mode);
  }
  return demand;
}

DbfResult dbf_scan(std::span<const DbfTaskTerms> terms,
                   DemandProfile* profile) {
  return run(nullptr, terms, DbfTaskTerms{}, 0, profile);
}

DbfResult dbf_apply(const DemandProfile& base,
                    std::span<const DbfTaskTerms> terms,
                    const DbfTaskTerms& changed, int sign,
                    DemandProfile* profile) {
  return run(base.complete ? &base : nullptr, terms, changed, sign, profile);
}

DbfResult edf_dbf_test(const mc::TaskSet& tasks, mc::Mode mode) {
  if (!tasks.valid())
    throw std::invalid_argument("edf_dbf_test: invalid task set");
  std::vector<DbfTaskTerms> terms;
  terms.reserve(tasks.size());
  for (const mc::McTask& task : tasks) terms.push_back(dbf_terms(task, mode));
  return dbf_scan(terms);
}

}  // namespace mcs::sched
