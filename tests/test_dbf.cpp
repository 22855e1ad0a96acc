// Tests for sched/dbf.hpp — processor-demand EDF analysis with
// constrained deadlines, including agreement with the utilization test on
// implicit-deadline sets.
#include "sched/dbf.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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
