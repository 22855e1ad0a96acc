// Tests for sched/dbf.hpp — processor-demand EDF analysis with
// constrained deadlines, including agreement with the utilization test on
// implicit-deadline sets, the int64 tick rules and the demand profile.
#include "sched/dbf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sched/edf.hpp"
#include "taskgen/generator.hpp"

namespace mcs::sched {
namespace {

TEST(DemandBound, StepsAtDeadlines) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 2.0, 10.0).with_deadline(6.0));
  EXPECT_DOUBLE_EQ(demand_bound(tasks, 5.9, mc::Mode::kLow), 0.0);
  EXPECT_DOUBLE_EQ(demand_bound(tasks, 6.0, mc::Mode::kLow), 2.0);
  EXPECT_DOUBLE_EQ(demand_bound(tasks, 15.9, mc::Mode::kLow), 2.0);
  EXPECT_DOUBLE_EQ(demand_bound(tasks, 16.0, mc::Mode::kLow), 4.0);
}

TEST(DemandBound, SumsOverTasks) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 2.0, 10.0));
  tasks.add(mc::McTask::low("b", 3.0, 15.0));
  EXPECT_DOUBLE_EQ(demand_bound(tasks, 30.0, mc::Mode::kLow),
                   3.0 * 2.0 + 2.0 * 3.0);
}

TEST(DemandBound, ModeSelectsWcet) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::high("h", 2.0, 5.0, 10.0));
  EXPECT_DOUBLE_EQ(demand_bound(tasks, 10.0, mc::Mode::kLow), 2.0);
  EXPECT_DOUBLE_EQ(demand_bound(tasks, 10.0, mc::Mode::kHigh), 5.0);
}

TEST(DemandBound, NegativeTimeThrows) {
  mc::TaskSet tasks;
  EXPECT_THROW((void)demand_bound(tasks, -1.0, mc::Mode::kLow),
               std::invalid_argument);
}

TEST(EdfDbf, EmptySetSchedulable) {
  EXPECT_TRUE(edf_dbf_test(mc::TaskSet{}, mc::Mode::kLow).schedulable);
}

TEST(EdfDbf, ImplicitDeadlinesMatchUtilizationTest) {
  common::Rng rng(3);
  taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  for (const double u : {0.5, 0.9, 0.99}) {
    const mc::TaskSet tasks = taskgen::generate_mixed(config, u, rng);
    const bool util_ok = edf_schedulable(tasks, mc::Mode::kLow);
    const DbfResult dbf = edf_dbf_test(tasks, mc::Mode::kLow);
    EXPECT_EQ(dbf.schedulable, util_ok) << "u=" << u;
  }
}

TEST(EdfDbf, OverloadRejectedImmediately) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 6.0, 10.0));
  tasks.add(mc::McTask::low("b", 5.0, 10.0));
  const DbfResult r = edf_dbf_test(tasks, mc::Mode::kLow);
  EXPECT_FALSE(r.schedulable);
}

TEST(EdfDbf, ConstrainedDeadlinesCanFailBelowFullUtilization) {
  // Two tasks, each U = 0.4, but with deadlines at 40% of the period the
  // demand in [0, 4] is 2 * 4 = 8 > 4.
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 4.0, 10.0).with_deadline(4.0));
  tasks.add(mc::McTask::low("b", 4.0, 10.0).with_deadline(4.0));
  const DbfResult r = edf_dbf_test(tasks, mc::Mode::kLow);
  EXPECT_FALSE(r.schedulable);
  EXPECT_DOUBLE_EQ(r.violation_time, 4.0);
  EXPECT_DOUBLE_EQ(r.violation_demand, 8.0);
}

TEST(EdfDbf, ConstrainedButFeasible) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 2.0, 10.0).with_deadline(5.0));
  tasks.add(mc::McTask::low("b", 3.0, 15.0).with_deadline(9.0));
  const DbfResult r = edf_dbf_test(tasks, mc::Mode::kLow);
  EXPECT_TRUE(r.schedulable);
  EXPECT_GT(r.points_checked, 0U);
}

TEST(EdfDbf, FullUtilizationImplicitIsSchedulable) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 5.0, 10.0));
  tasks.add(mc::McTask::low("b", 10.0, 20.0));
  const DbfResult r = edf_dbf_test(tasks, mc::Mode::kLow);
  EXPECT_TRUE(r.schedulable);
}

TEST(EdfDbf, TighterDeadlineNeverHelps) {
  taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  for (int trial = 0; trial < 20; ++trial) {
    common::Rng set_rng(
        common::index_seed(7, static_cast<std::uint64_t>(trial)));
    mc::TaskSet implicit = taskgen::generate_mixed(config, 0.9, set_rng);
    mc::TaskSet constrained;
    for (std::size_t i = 0; i < implicit.size(); ++i) {
      const mc::McTask& t = implicit[i];
      const double d =
          std::max(t.wcet_hi, set_rng.uniform(0.5, 1.0) * t.period);
      constrained.add(t.with_deadline(d));
    }
    const bool implicit_ok =
        edf_dbf_test(implicit, mc::Mode::kLow).schedulable;
    const bool constrained_ok =
        edf_dbf_test(constrained, mc::Mode::kLow).schedulable;
    // Shrinking deadlines can only remove schedulability.
    EXPECT_TRUE(implicit_ok || !constrained_ok);
  }
}

TEST(EdfDbf, ViolationBeyondPeriodSumIsFound) {
  // Regression for the U ≈ 1 fallback horizon. This set has total
  // utilization exactly 1 (0.3 + 0.3 + 0.4) with one constrained
  // deadline, so it is infeasible — but its first violating deadline
  // instant lies at t = 77, beyond the sum of periods (7 + 11 + 13 = 31)
  // that the old fallback used as the horizon: the old test checked
  // every deadline up to 31, found no violation, and wrongly reported
  // "schedulable". The hyperperiod horizon (lcm = 1001) finds it.
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 2.1, 7.0));
  tasks.add(mc::McTask::low("b", 3.3, 11.0));
  tasks.add(mc::McTask::low("c", 5.2, 13.0).with_deadline(12.0));

  // No deadline instant up to the old sum-of-periods horizon violates:
  // the old code necessarily accepted this set.
  const double period_sum = 7.0 + 11.0 + 13.0;
  for (const double t : {7.0, 11.0, 12.0, 14.0, 21.0, 22.0, 25.0, 28.0})
    EXPECT_LE(demand_bound(tasks, t, mc::Mode::kLow), t) << "t=" << t;

  const DbfResult r = edf_dbf_test(tasks, mc::Mode::kLow);
  EXPECT_FALSE(r.schedulable);
  EXPECT_FALSE(r.inconclusive);
  EXPECT_GT(r.violation_time, period_sum);
  EXPECT_DOUBLE_EQ(r.violation_time, 77.0);
  EXPECT_GT(r.violation_demand, r.violation_time);
}

TEST(EdfDbf, UnboundedHyperperiodIsInconclusiveNotSchedulable) {
  // U = 1 with periods that share no power-of-ten integralization: the
  // hyperperiod cannot be bounded, so the test must refuse to claim
  // schedulability rather than silently cap the horizon.
  mc::TaskSet tasks;
  const double p1 = 7.1234567;
  const double p2 = 11.7654321;
  tasks.add(mc::McTask::low("a", 0.5 * p1, p1));
  tasks.add(mc::McTask::low("b", 0.5 * p2, p2));
  const DbfResult r = edf_dbf_test(tasks, mc::Mode::kLow);
  EXPECT_FALSE(r.schedulable);
  EXPECT_TRUE(r.inconclusive);
  EXPECT_GT(r.points_checked, 0U);
}

TEST(EdfDbf, FullUtilizationHyperperiodStaysExact) {
  // Integral periods with a small lcm: the U ≈ 1 path must still give a
  // definite answer (implicit deadlines at U = 1 are feasible).
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 3.5, 7.0));
  tasks.add(mc::McTask::low("b", 5.5, 11.0));
  const DbfResult r = edf_dbf_test(tasks, mc::Mode::kLow);
  EXPECT_TRUE(r.schedulable);
  EXPECT_FALSE(r.inconclusive);
}

TEST(EdfDbf, SaturatedSetWithSubPicosecondWcetIsViolation) {
  // U = 1/3 + 2/3 = 1 exactly, and a's C = 1/3 ms is not a whole tick:
  // rounded up to 333,333,334 ps it makes the tick model overloaded, so
  // dbf(3) = 3 ms + 2 ps > 3 ms, while the real-valued demand only meets
  // t there.
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 1.0 / 3.0, 1.0));
  tasks.add(mc::McTask::low("b", 1.0, 1.5));
  EXPECT_LE(demand_bound(tasks, 3.0, mc::Mode::kLow), 3.0 + kDbfEps);
  const DbfResult r = edf_dbf_test(tasks, mc::Mode::kLow);
  EXPECT_FALSE(r.schedulable);
  EXPECT_FALSE(r.inconclusive);
  EXPECT_DOUBLE_EQ(r.violation_time, 3.0);
  EXPECT_DOUBLE_EQ(r.violation_demand, 3.000000002);
}

TEST(DbfTicks, RoundingAndSnapping) {
  // Float noise a hair off a whole tick snaps to it, in either
  // direction: 0.1 + 0.2 ms is 300,000,000.00000006 ps (C would round up
  // to ...001), and 0.3 * 3 ms is 899,999,999.9999999 ps (D and T would
  // round down to ...999).
  const DbfTaskTerms snapped = dbf_terms(0.1 + 0.2, 0.3 * 3, 0.3 * 3);
  EXPECT_TRUE(snapped.fits);
  EXPECT_EQ(snapped.wcet, 300'000'000);
  EXPECT_EQ(snapped.deadline, 900'000'000);
  EXPECT_EQ(snapped.period, 900'000'000);
  // 1/3 ms is a third of a tick off: C rounds up, D and T round down.
  const DbfTaskTerms third = dbf_terms(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0);
  EXPECT_TRUE(third.fits);
  EXPECT_EQ(third.wcet, 333'333'334);
  EXPECT_EQ(third.deadline, 333'333'333);
  EXPECT_EQ(third.period, 333'333'333);
  // The plan keeps the real utilization addends.
  EXPECT_EQ(third.util, 1.0);
  // Past int64 (1e12 ms = 1e21 ps), or a D below one tick: no fit.
  EXPECT_FALSE(dbf_terms(1.0, 1e12, 1e12).fits);
  EXPECT_FALSE(dbf_terms(1e-13, 1e-13, 10.0).fits);
}

TEST(EdfDbf, ValueBeyondTickRangeIsInconclusive) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 1.0, 10.0));
  tasks.add(mc::McTask::low("huge", 1.0, 1e12));
  const DbfResult r = edf_dbf_test(tasks, mc::Mode::kLow);
  EXPECT_FALSE(r.schedulable);
  EXPECT_TRUE(r.inconclusive);
  EXPECT_EQ(r.points_checked, 0U);
}

TEST(EdfDbf, HyperperiodIsTheLcmOfTickPeriods) {
  // Periods 1.00001 and 2.00002 ms need a 1e5 scale to become integers;
  // in ticks their lcm is simply 2,000,020,000 ps, so the U = 1 set gets
  // an exact hyperperiod horizon and a definite answer.
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 0.5 * 1.00001, 1.00001));
  tasks.add(mc::McTask::low("b", 0.5 * 2.00002, 2.00002));
  const DbfResult r = edf_dbf_test(tasks, mc::Mode::kLow);
  EXPECT_TRUE(r.schedulable);
  EXPECT_FALSE(r.inconclusive);
}

TEST(EdfDbf, NearFullUtilizationStaysInconclusiveUnderTheClamp) {
  // U = 1 - 2e-9 takes the La branch, and the constrained deadline makes
  // La = 250 / 2e-9 = 1.25e11 ms, past int64 ticks. The horizon is
  // clamped to max D + budget·min T, where the point budget binds first:
  // the scan runs the full budget, finds no violation and stays
  // inconclusive, as the unclamped La would.
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 500.0, 1000.0).with_deadline(500.0));
  tasks.add(mc::McTask::low("b", 499.999998, 1000.0));
  const DbfResult r = edf_dbf_test(tasks, mc::Mode::kLow);
  EXPECT_FALSE(r.schedulable);
  EXPECT_TRUE(r.inconclusive);
  EXPECT_EQ(r.points_checked, kDbfPointBudget);
}

TEST(DemandProfile, ApplyMatchesScanBothWays) {
  // Taking one task's demand on (+1) or off (-1) a profile gives exactly
  // the result and the profile of a from-scratch scan of the new set.
  taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  const auto same = [](const DemandProfile& a, const DemandProfile& b) {
    if (a.horizon != b.horizon || a.complete != b.complete ||
        a.steps.size() != b.steps.size())
      return false;
    for (std::size_t i = 0; i < a.steps.size(); ++i)
      if (a.steps[i].time != b.steps[i].time ||
          a.steps[i].demand != b.steps[i].demand ||
          a.steps[i].owners != b.steps[i].owners)
        return false;
    return true;
  };
  for (int trial = 0; trial < 40; ++trial) {
    common::Rng rng(common::index_seed(23, static_cast<std::uint64_t>(trial)));
    const mc::TaskSet tasks = taskgen::generate_mixed(config, 0.8, rng);
    std::vector<DbfTaskTerms> terms;
    for (const mc::McTask& task : tasks) {
      const double d = rng.uniform(0.7, 1.0) * task.period;
      terms.push_back(dbf_terms(task.wcet_lo, std::max(task.wcet_lo, d),
                                task.period));
    }
    const std::size_t pick = rng.uniform_u64(0, terms.size() - 1);
    std::vector<DbfTaskTerms> without = terms;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(pick));

    DemandProfile full;
    DemandProfile part;
    const DbfResult full_r = dbf_scan(terms, &full);
    (void)dbf_scan(without, &part);
    ASSERT_TRUE(part.complete) << "trial " << trial;
    DemandProfile added;
    const DbfResult added_r =
        dbf_apply(part, terms, terms[pick], +1, &added);
    EXPECT_EQ(added_r.schedulable, full_r.schedulable) << "trial " << trial;
    EXPECT_EQ(added_r.points_checked, full_r.points_checked);
    EXPECT_EQ(added_r.violation_time, full_r.violation_time);
    EXPECT_TRUE(same(added, full)) << "trial " << trial;
    if (!full.complete) continue;
    DemandProfile removed;
    const DbfResult removed_r =
        dbf_apply(full, without, terms[pick], -1, &removed);
    EXPECT_TRUE(removed_r.schedulable) << "trial " << trial;
    EXPECT_TRUE(same(removed, part)) << "trial " << trial;
  }
}

TEST(McTaskDeadline, OverrideSemantics) {
  const mc::McTask implicit = mc::McTask::low("a", 2.0, 10.0);
  EXPECT_TRUE(implicit.implicit_deadline());
  EXPECT_DOUBLE_EQ(implicit.deadline(), 10.0);
  const mc::McTask constrained = implicit.with_deadline(6.0);
  EXPECT_FALSE(constrained.implicit_deadline());
  EXPECT_DOUBLE_EQ(constrained.deadline(), 6.0);
  EXPECT_TRUE(constrained.valid());
  EXPECT_FALSE(implicit.with_deadline(1.0).valid());   // D < wcet
  EXPECT_FALSE(implicit.with_deadline(20.0).valid());  // D > period
}

}  // namespace
}  // namespace mcs::sched
