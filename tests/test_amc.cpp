// Tests for sched/amc.hpp — fixed-priority AMC-rtb response-time analysis.
#include "sched/amc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"
#include "sched/edf_vd.hpp"
#include "taskgen/generator.hpp"

namespace mcs::sched {
namespace {

TEST(AmcRtb, SingleTaskResponseIsItsWcet) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::high("h", 3.0, 7.0, 20.0));
  const AmcResult r = amc_rtb_test(tasks);
  ASSERT_TRUE(r.schedulable);
  EXPECT_DOUBLE_EQ(r.tasks[0].response_lo, 3.0);
  EXPECT_DOUBLE_EQ(r.tasks[0].response_hi, 7.0);
  EXPECT_DOUBLE_EQ(r.tasks[0].response_transition, 7.0);
}

TEST(AmcRtb, ClassicResponseTimeExample) {
  // Two LC tasks (plain fixed-priority): C=1,T=4 and C=2,T=6.
  // R1 = 1; R2 = 2 + ceil(R2/4)*1 -> R2 = 3.
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("t1", 1.0, 4.0));
  tasks.add(mc::McTask::low("t2", 2.0, 6.0));
  const AmcResult r = amc_rtb_test(tasks);
  ASSERT_TRUE(r.schedulable);
  EXPECT_DOUBLE_EQ(r.tasks[0].response_lo, 1.0);
  EXPECT_DOUBLE_EQ(r.tasks[1].response_lo, 3.0);
}

TEST(AmcRtb, DeadlineMonotonicOrdering) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("slow", 1.0, 100.0));
  tasks.add(mc::McTask::low("fast", 1.0, 10.0));
  const AmcResult r = amc_rtb_test(tasks);
  ASSERT_EQ(r.priority_order.size(), 2U);
  EXPECT_EQ(r.priority_order[0], 1U);  // shorter deadline first
  EXPECT_EQ(r.priority_order[1], 0U);
}

TEST(AmcRtb, TransitionBoundAccountsForFrozenLcInterference) {
  // An HC task below an LC task in the priority order picks up the LC
  // task's LO-mode interference in the transition bound.
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("lc", 2.0, 10.0));           // D = 10, higher prio
  tasks.add(mc::McTask::high("hc", 3.0, 6.0, 20.0));     // D = 20
  const AmcResult r = amc_rtb_test(tasks);
  ASSERT_TRUE(r.schedulable);
  // R^LO(hc) = 3 + ceil(R/10)*2 = 5.
  EXPECT_DOUBLE_EQ(r.tasks[1].response_lo, 5.0);
  // Steady HI: no HC above it -> R^HI = 6.
  EXPECT_DOUBLE_EQ(r.tasks[1].response_hi, 6.0);
  // Transition: 6 + frozen LC (ceil(5/10)*2 = 2) = 8.
  EXPECT_DOUBLE_EQ(r.tasks[1].response_transition, 8.0);
}

TEST(AmcRtb, TransitionCanBeTheBindingBound) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("lc", 4.0, 10.0));
  tasks.add(mc::McTask::high("hc", 3.0, 7.0, 11.0));
  const AmcResult r = amc_rtb_test(tasks);
  // R^LO = 3 + 4 = 7 <= 11; R^HI = 7 <= 11;
  // transition = 7 + ceil(7/10)*4 = 11 <= 11: exactly schedulable.
  ASSERT_TRUE(r.schedulable);
  EXPECT_DOUBLE_EQ(r.tasks[1].response_transition, 11.0);
  // Shrink the deadline slightly: the transition bound must now fail.
  mc::TaskSet tighter;
  tighter.add(mc::McTask::low("lc", 4.0, 10.0));
  tighter.add(mc::McTask::high("hc", 3.0, 7.0, 11.0).with_deadline(10.5));
  EXPECT_FALSE(amc_rtb_test(tighter).schedulable);
}

TEST(AmcRtb, OverloadedSetRejected) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 6.0, 10.0));
  tasks.add(mc::McTask::low("b", 6.0, 10.0));
  const AmcResult r = amc_rtb_test(tasks);
  EXPECT_FALSE(r.schedulable);
  EXPECT_TRUE(std::isinf(r.tasks[1].response_lo) ||
              r.tasks[1].response_lo > 10.0);
}

TEST(AmcRtb, EdfVdDominatesOnImplicitDeadlines) {
  // EDF is optimal on one processor: sets AMC-rtb accepts, EDF-VD accepts
  // too (on our utilization-style conditions this holds statistically; we
  // verify no AMC-accepted set is EDF-VD-rejected).
  taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  int amc_only = 0;
  int both = 0;
  for (int trial = 0; trial < 60; ++trial) {
    common::Rng set_rng(
        common::index_seed(11, static_cast<std::uint64_t>(trial)));
    mc::TaskSet tasks = taskgen::generate_mixed(config, 0.9, set_rng);
    const std::size_t hc = tasks.count(mc::Criticality::kHigh);
    (void)core::apply_chebyshev_assignment(tasks,
                                           std::vector<double>(hc, 3.0));
    const bool amc = amc_rtb_test(tasks).schedulable;
    const bool edf = edf_vd_test(tasks).schedulable;
    if (amc && !edf) ++amc_only;
    if (amc && edf) ++both;
  }
  EXPECT_EQ(amc_only, 0);
  EXPECT_GT(both, 0);  // the comparison is non-vacuous
}

TEST(AmcRtb, ChebyshevAssignmentImprovesAmcSchedulability) {
  // The paper's claim that the scheme helps "any scheduling algorithm":
  // C^LO = ACET + 3 sigma admits at least as many sets under AMC-rtb as
  // C^LO = C^HI (no optimism).
  taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  int vestal_ok = 0;
  int chebyshev_ok = 0;
  for (int trial = 0; trial < 40; ++trial) {
    common::Rng set_rng(
        common::index_seed(13, static_cast<std::uint64_t>(trial)));
    mc::TaskSet tasks = taskgen::generate_mixed(config, 1.0, set_rng);
    if (amc_rtb_test(tasks).schedulable) ++vestal_ok;
    mc::TaskSet assigned = tasks;
    const std::size_t hc = assigned.count(mc::Criticality::kHigh);
    (void)core::apply_chebyshev_assignment(assigned,
                                           std::vector<double>(hc, 3.0));
    if (amc_rtb_test(assigned).schedulable) ++chebyshev_ok;
  }
  EXPECT_GE(chebyshev_ok, vestal_ok);
  EXPECT_GT(chebyshev_ok, 0);
}

TEST(AmcWithPriorities, CustomOrderRespected) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 1.0, 4.0));
  tasks.add(mc::McTask::low("b", 2.0, 6.0));
  // Inverted priorities: b above a -> R(a) = 1 + 2 = 3.
  const AmcResult r = amc_rtb_test_with_priorities(tasks, {1, 0});
  ASSERT_TRUE(r.schedulable);
  EXPECT_DOUBLE_EQ(r.tasks[1].response_lo, 2.0);
  EXPECT_DOUBLE_EQ(r.tasks[0].response_lo, 3.0);
}

TEST(AmcWithPriorities, Validation) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 1.0, 4.0));
  tasks.add(mc::McTask::low("b", 2.0, 6.0));
  EXPECT_THROW((void)amc_rtb_test_with_priorities(tasks, {0}),
               std::invalid_argument);
  EXPECT_THROW((void)amc_rtb_test_with_priorities(tasks, {0, 0}),
               std::invalid_argument);
  EXPECT_THROW((void)amc_rtb_test_with_priorities(tasks, {0, 5}),
               std::invalid_argument);
}

TEST(AmcOpa, AcceptsEverythingDmAccepts) {
  taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  int dm_only = 0;
  int opa_extra = 0;
  for (int trial = 0; trial < 40; ++trial) {
    common::Rng set_rng(
        common::index_seed(17, static_cast<std::uint64_t>(trial)));
    mc::TaskSet tasks = taskgen::generate_mixed(config, 0.95, set_rng);
    const std::size_t hc = tasks.count(mc::Criticality::kHigh);
    (void)core::apply_chebyshev_assignment(tasks,
                                           std::vector<double>(hc, 3.0));
    const bool dm = amc_rtb_test(tasks).schedulable;
    const bool opa = amc_opa_test(tasks).schedulable;
    if (dm && !opa) ++dm_only;  // would contradict OPA optimality
    if (!dm && opa) ++opa_extra;
  }
  EXPECT_EQ(dm_only, 0);
  (void)opa_extra;  // may be 0 on easy sets; must never be negative
}

TEST(AmcOpa, FindsScheduleWhereDmFails) {
  // Constrained deadlines where DM misorders: a long-deadline HC task
  // with a huge transition bound must sit HIGH, which DM refuses.
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("lc", 5.0, 12.0).with_deadline(12.0));
  tasks.add(mc::McTask::high("hc", 4.0, 9.0, 20.0).with_deadline(13.0));
  const AmcResult dm = amc_rtb_test(tasks);
  const AmcResult opa = amc_opa_test(tasks);
  // DM: lc above hc -> transition R(hc) = 9 + ceil(R_lo/12)*5; R_lo = 9
  // -> frozen 5 -> 14 > 13: fail.
  EXPECT_FALSE(dm.schedulable);
  // OPA: lc at the bottom -> R(lc) = 5 + 9 = ... must check: hc above:
  // R(lc) = 5 + ceil(R/20)*4 = 9 <= 12 OK; hc alone on top: 9 <= 13 OK.
  ASSERT_TRUE(opa.schedulable);
  EXPECT_EQ(opa.priority_order.front(), 1U);  // hc on top
}

TEST(AmcOpa, UnschedulableStaysUnschedulable) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("a", 6.0, 10.0));
  tasks.add(mc::McTask::low("b", 6.0, 10.0));
  EXPECT_FALSE(amc_opa_test(tasks).schedulable);
}

TEST(AmcRtb, InvalidSetThrows) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("bad", 0.0, 10.0));
  EXPECT_THROW((void)amc_rtb_test(tasks), std::invalid_argument);
}

}  // namespace
}  // namespace mcs::sched
