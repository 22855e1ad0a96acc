// Tests for sim/engine.hpp — the paper's operational model (Section III)
// as executed by the discrete-event simulator.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"
#include "sched/edf_vd.hpp"
#include "stats/distributions.hpp"
#include "taskgen/generator.hpp"

namespace mcs::sim {
namespace {

/// HC task whose demand distribution is a point mass at `exec` ms.
mc::McTask deterministic_hc(const std::string& name, double wcet_lo,
                            double wcet_hi, double period, double exec) {
  mc::McTask t = mc::McTask::high(name, wcet_lo, wcet_hi, period);
  mc::ExecutionStats stats;
  stats.acet = exec;
  stats.sigma = 0.0;
  stats.distribution =
      std::make_shared<stats::UniformDistribution>(exec, exec);
  t.stats = stats;
  return t;
}

/// LC task whose demand distribution is a point mass at `exec` ms.
mc::McTask deterministic_lc(const std::string& name, double wcet,
                            double period, double exec) {
  mc::McTask t = mc::McTask::low(name, wcet, period);
  mc::ExecutionStats stats;
  stats.acet = exec;
  stats.sigma = 0.0;
  stats.distribution =
      std::make_shared<stats::UniformDistribution>(exec, exec);
  t.stats = stats;
  return t;
}

TEST(Sim, SingleTaskUtilizationAccounting) {
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 20.0, 30.0, 100.0, 10.0));
  SimConfig config;
  config.horizon = 10000.0;
  const SimResult r = simulate(tasks, config);
  EXPECT_EQ(r.metrics.hc_jobs_released, 100U);
  EXPECT_EQ(r.metrics.hc_jobs_completed, 100U);
  EXPECT_EQ(r.metrics.mode_switches, 0U);
  EXPECT_EQ(r.metrics.hc_deadline_misses, 0U);
  EXPECT_NEAR(r.metrics.observed_utilization(), 0.1, 1e-6);
}

TEST(Sim, OverrunTriggersModeSwitchAndRecovery) {
  mc::TaskSet tasks;
  // Demand 25 > C^LO 20: every job overruns, HI budget 30 covers it.
  tasks.add(deterministic_hc("h", 20.0, 30.0, 100.0, 25.0));
  SimConfig config;
  config.horizon = 10000.0;
  const SimResult r = simulate(tasks, config);
  EXPECT_EQ(r.metrics.hc_jobs_overrun, r.metrics.hc_jobs_released);
  EXPECT_EQ(r.metrics.mode_switches, r.metrics.hc_jobs_released);
  EXPECT_EQ(r.metrics.hc_deadline_misses, 0U);
  EXPECT_EQ(r.metrics.hc_jobs_completed, r.metrics.hc_jobs_released);
  // The system must return to LO between jobs.
  EXPECT_LT(r.metrics.hi_mode_fraction(), 0.5);
}

TEST(Sim, DropAllRejectsLcInHiMode) {
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 10.0, 80.0, 100.0, 70.0));  // overruns
  tasks.add(mc::McTask::low("l", 10.0, 100.0));
  SimConfig config;
  config.horizon = 20000.0;
  config.lc_policy = LcPolicy::kDropAll;
  const SimResult r = simulate(tasks, config);
  EXPECT_GT(r.metrics.mode_switches, 0U);
  EXPECT_GT(r.metrics.lc_jobs_dropped, 0U);
  EXPECT_EQ(r.metrics.hc_deadline_misses, 0U);
}

TEST(Sim, DegradePolicyCompletesSomeLcInHiMode) {
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 10.0, 60.0, 100.0, 50.0));
  tasks.add(mc::McTask::low("l", 20.0, 100.0));
  SimConfig drop_config;
  drop_config.horizon = 20000.0;
  drop_config.lc_policy = LcPolicy::kDropAll;
  SimConfig degrade_config = drop_config;
  degrade_config.lc_policy = LcPolicy::kDegradeHalf;
  const SimResult drop = simulate(tasks, drop_config);
  const SimResult degrade = simulate(tasks, degrade_config);
  // Degrading preserves strictly more LC completions than dropping.
  EXPECT_GT(degrade.metrics.lc_jobs_completed, drop.metrics.lc_jobs_completed);
}

TEST(Sim, NoOverrunWhenBudgetCoversDemand) {
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 20.0, 30.0, 100.0, 20.0));  // exact fit
  SimConfig config;
  config.horizon = 5000.0;
  const SimResult r = simulate(tasks, config);
  EXPECT_EQ(r.metrics.hc_jobs_overrun, 0U);
  EXPECT_EQ(r.metrics.mode_switches, 0U);
}

TEST(Sim, VirtualDeadlinePrioritizesHcInLoMode) {
  // HC with a shrunk virtual deadline must preempt an LC job with a
  // nominally earlier real deadline.
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 40.0, 50.0, 200.0, 40.0));
  tasks.add(mc::McTask::low("l", 90.0, 150.0));
  SimConfig config;
  config.horizon = 30000.0;
  config.x = 0.3;  // HC virtual deadline = release + 60 < LC deadline 150
  const SimResult r = simulate(tasks, config);
  EXPECT_EQ(r.metrics.hc_deadline_misses, 0U);
}

TEST(Sim, DeterministicInSeed) {
  mc::TaskSet tasks;
  mc::McTask h = mc::McTask::high("h", 15.0, 45.0, 100.0);
  mc::ExecutionStats stats;
  stats.acet = 12.0;
  stats.sigma = 4.0;
  stats.distribution = stats::LogNormalDistribution::from_moments(12.0, 4.0);
  h.stats = stats;
  tasks.add(h);
  tasks.add(mc::McTask::low("l", 20.0, 150.0));
  SimConfig config;
  config.horizon = 50000.0;
  config.seed = 77;
  const SimResult a = simulate(tasks, config);
  const SimResult b = simulate(tasks, config);
  EXPECT_EQ(a.metrics.mode_switches, b.metrics.mode_switches);
  EXPECT_EQ(a.metrics.lc_jobs_dropped, b.metrics.lc_jobs_dropped);
  EXPECT_DOUBLE_EQ(a.metrics.busy_time, b.metrics.busy_time);
}

TEST(Sim, StochasticOverrunRateTracksDistribution) {
  // C^LO placed at the distribution's ~80th percentile: overruns should
  // land near 20%, and far under the Chebyshev bound.
  mc::TaskSet tasks;
  mc::McTask h = mc::McTask::high("h", 0.0, 40.0, 100.0);
  mc::ExecutionStats stats;
  stats.acet = 10.0;
  stats.sigma = 2.0;
  stats.distribution =
      std::make_shared<stats::TruncatedNormalDistribution>(10.0, 2.0);
  h.stats = stats;
  h.wcet_lo = 10.0 + 0.8416 * 2.0;  // z_{0.8} for a normal
  tasks.add(h);
  SimConfig config;
  config.horizon = 2'000'000.0;
  const SimResult r = simulate(tasks, config);
  EXPECT_NEAR(r.metrics.hc_overrun_rate(), 0.2, 0.02);
}

TEST(Sim, SporadicJitterKeepsSchedulableSetsSafe) {
  // The periodic analyses are sufficient for sporadic arrivals: jittered
  // releases must never create HC misses in a schedulable set.
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h1", 10.0, 20.0, 100.0, 8.0));
  tasks.add(deterministic_hc("h2", 15.0, 25.0, 150.0, 12.0));
  tasks.add(mc::McTask::low("l", 30.0, 300.0));
  const sched::EdfVdResult vd = sched::edf_vd_test(tasks);
  ASSERT_TRUE(vd.schedulable);
  for (const double jitter : {0.1, 0.5, 1.0}) {
    SimConfig config;
    config.horizon = 60000.0;
    config.x = vd.x;
    config.release_jitter = jitter;
    config.seed = 21;
    const SimResult r = simulate(tasks, config);
    EXPECT_EQ(r.metrics.hc_deadline_misses, 0U) << "jitter " << jitter;
    // Jitter delays each release within its own period slot, so the
    // long-run release count matches the periodic one (at most the final
    // release of each task can slip past the horizon).
    EXPECT_LE(r.metrics.hc_jobs_released, 600U + 400U);
    EXPECT_GE(r.metrics.hc_jobs_released, 600U + 400U - 2U);
  }
}

TEST(Sim, JitterDoesNotDriftTheReleaseRate) {
  // Regression: release jitter used to be added on top of the *previous
  // jittered release* instead of the periodic grid, so inter-release
  // times averaged T * (1 + jitter/2) and the release count drifted ~33%
  // low at jitter = 1.0. Jitter must delay each release within its slot
  // while the mean inter-release time stays exactly one period.
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("l", 1.0, 100.0));
  for (const double jitter : {0.0, 0.3, 1.0}) {
    SimConfig config;
    config.horizon = 100000.0;  // 1000 grid slots of 100 ms
    config.release_jitter = jitter;
    config.seed = 33;
    const SimResult r = simulate(tasks, config);
    // Every slot k*100 + U(0, jitter*100) lands strictly inside the
    // horizon, so the count is exactly the periodic one.
    EXPECT_EQ(r.metrics.lc_jobs_released, 1000U) << "jitter " << jitter;
  }
}

TEST(Sim, JitterValidation) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("l", 10.0, 100.0));
  SimConfig config;
  config.release_jitter = -0.1;
  EXPECT_THROW((void)simulate(tasks, config), std::invalid_argument);
}

TEST(Sim, ServerPolicyServesLcDuringHiMode) {
  mc::TaskSet tasks;
  // HC task that always overruns and occupies HI mode for a while.
  tasks.add(deterministic_hc("h", 10.0, 60.0, 100.0, 50.0));
  tasks.add(mc::McTask::low("l", 8.0, 100.0));
  SimConfig drop;
  drop.horizon = 50000.0;
  drop.lc_policy = LcPolicy::kDropAll;
  SimConfig server = drop;
  server.lc_policy = LcPolicy::kServer;
  server.server_capacity = 10.0;
  server.server_period = 50.0;
  const SimResult dropped = simulate(tasks, drop);
  const SimResult served = simulate(tasks, server);
  ASSERT_GT(dropped.metrics.mode_switches, 0U);
  // The server completes strictly more LC jobs than dropping them.
  EXPECT_GT(served.metrics.lc_jobs_completed,
            dropped.metrics.lc_jobs_completed);
  EXPECT_EQ(served.metrics.hc_deadline_misses, 0U);
}

TEST(Sim, ServerBudgetThrottlesLc) {
  // A starved server (tiny capacity) serves fewer LC jobs than an ample
  // one under identical load. The LC deadline (50) falls inside the HC
  // task's HI interval (~[10, 70] each period), so the server is the only
  // path to completion for the first LC job of each period.
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 10.0, 80.0, 100.0, 70.0));
  tasks.add(mc::McTask::low("l", 10.0, 50.0));
  SimConfig starved;
  starved.horizon = 50000.0;
  starved.lc_policy = LcPolicy::kServer;
  starved.server_capacity = 1.0;
  starved.server_period = 100.0;
  // Shrunk virtual deadlines dispatch the HC job first, so the overrun
  // happens before the LC job gets the processor.
  starved.x = 0.2;
  SimConfig ample = starved;
  ample.server_capacity = 30.0;
  const SimResult lean = simulate(tasks, starved);
  const SimResult rich = simulate(tasks, ample);
  EXPECT_LT(lean.metrics.lc_jobs_completed, rich.metrics.lc_jobs_completed);
}

TEST(Sim, ServerValidation) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("l", 10.0, 100.0));
  SimConfig config;
  config.lc_policy = LcPolicy::kServer;
  config.server_capacity = 0.0;
  EXPECT_THROW((void)simulate(tasks, config), std::invalid_argument);
}

TEST(Sim, ContextSwitchesCountedWithoutCost) {
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 20.0, 30.0, 100.0, 10.0));
  tasks.add(mc::McTask::low("l", 10.0, 100.0));
  SimConfig config;
  config.horizon = 10000.0;
  const SimResult r = simulate(tasks, config);
  // Two jobs per period, each dispatched at least once.
  EXPECT_GE(r.metrics.context_switches, 200U);
  EXPECT_DOUBLE_EQ(r.metrics.overhead_time, 0.0);
}

TEST(Sim, ContextSwitchOverheadConsumesTime) {
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 20.0, 30.0, 100.0, 10.0));
  tasks.add(mc::McTask::low("l", 10.0, 100.0));
  SimConfig config;
  config.horizon = 10000.0;
  config.context_switch_ms = 0.5;
  const SimResult r = simulate(tasks, config);
  EXPECT_GT(r.metrics.overhead_time, 0.0);
  EXPECT_NEAR(r.metrics.overhead_time,
              0.5 * static_cast<double>(r.metrics.context_switches), 1.0);
  // Overhead is busy time, so observed utilization rises.
  SimConfig free_config = config;
  free_config.context_switch_ms = 0.0;
  const SimResult free_run = simulate(tasks, free_config);
  EXPECT_GT(r.metrics.observed_utilization(),
            free_run.metrics.observed_utilization());
}

TEST(Sim, ModeSwitchOverheadCharged) {
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 20.0, 30.0, 100.0, 25.0));  // overruns
  SimConfig config;
  config.horizon = 10000.0;
  config.mode_switch_ms = 1.0;
  const SimResult r = simulate(tasks, config);
  ASSERT_GT(r.metrics.mode_switches, 0U);
  // Each LO->HI has a matching HI->LO, both charged.
  EXPECT_NEAR(r.metrics.overhead_time,
              2.0 * static_cast<double>(r.metrics.mode_switches), 2.0);
  EXPECT_EQ(r.metrics.hc_deadline_misses, 0U);
}

TEST(Sim, BackSwitchRestoresDegradedLcBudget) {
  // Regression: an LC job degraded at the LO->HI switch straddles the
  // HI->LO back-switch. Once the system is back in LO mode, the paper's
  // guarantees hold again, so the job must regain its full C^LO budget
  // (and lose the degraded flag). Previously the halved budget survived
  // the back-switch and the job was dropped mid-LO-mode.
  mc::TaskSet tasks;
  // h overruns at t=10 and completes at t=35 (demand 35 under C^HI 40).
  tasks.add(deterministic_hc("h", 10.0, 40.0, 100.0, 35.0));
  // l is pending at the switch: degraded budget 10 < demand 15 <= C^LO 20.
  tasks.add(deterministic_lc("l", 20.0, 100.0, 15.0));
  SimConfig config;
  config.horizon = 100.0;
  config.lc_policy = LcPolicy::kDegradeHalf;
  config.back_switch = BackSwitchPolicy::kNoReadyHc;
  const SimResult r = simulate(tasks, config);
  EXPECT_EQ(r.metrics.mode_switches, 1U);
  EXPECT_EQ(r.metrics.lc_jobs_released, 1U);
  // With the full budget restored at t=35 the job (15 ms demand) finishes
  // at t=50, undegraded; with the stale halved budget it was dropped.
  EXPECT_EQ(r.metrics.lc_jobs_completed, 1U);
  EXPECT_EQ(r.metrics.lc_jobs_dropped, 0U);
  EXPECT_EQ(r.metrics.lc_jobs_degraded, 0U);
  EXPECT_EQ(r.metrics.hc_deadline_misses, 0U);
}

TEST(Sim, LcReleasedInHiModeRegainsFullBudgetAfterBackSwitch) {
  // Same regression for the other degradation path: an LC job *released*
  // while the system is in HI mode (admitted at half budget) that is
  // still pending when the system returns to LO mode.
  mc::TaskSet tasks;
  // Timeline: l#1 (deadline 50) runs 0-15; h runs 15-25, overruns -> HI;
  // l#2 releases at t=50 in HI mode (degraded budget 10, deadline 100)
  // but h's real deadline 80 keeps the processor until h completes at
  // t=70; the back-switch at t=70 must restore l#2's budget to 20 so its
  // 15 ms demand completes at t=85.
  tasks.add(deterministic_hc("h", 10.0, 60.0, 80.0, 55.0));
  tasks.add(deterministic_lc("l", 20.0, 50.0, 15.0));
  SimConfig config;
  config.horizon = 120.0;
  config.lc_policy = LcPolicy::kDegradeHalf;
  config.back_switch = BackSwitchPolicy::kNoReadyHc;
  const SimResult r = simulate(tasks, config);
  // l#3 (released t=100, inside h#2's HI window) legitimately exhausts
  // its degraded budget and is dropped in HI mode under this policy.
  EXPECT_EQ(r.metrics.lc_jobs_released, 3U);
  EXPECT_EQ(r.metrics.lc_jobs_completed, 2U);
  EXPECT_EQ(r.metrics.lc_jobs_dropped, 1U);
  // l#2 completes with its restored (full) budget, so no completion is
  // counted as degraded.
  EXPECT_EQ(r.metrics.lc_jobs_degraded, 0U);
  EXPECT_EQ(r.metrics.hc_deadline_misses, 0U);
}

TEST(Sim, IdleInstantBackSwitchStaysInHiLonger) {
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 10.0, 60.0, 100.0, 50.0));  // overruns
  tasks.add(mc::McTask::low("l", 30.0, 120.0));
  SimConfig paper_config;
  paper_config.horizon = 60000.0;
  paper_config.lc_policy = LcPolicy::kDegradeHalf;
  paper_config.back_switch = BackSwitchPolicy::kNoReadyHc;
  SimConfig idle_config = paper_config;
  idle_config.back_switch = BackSwitchPolicy::kIdleInstant;
  const SimResult paper = simulate(tasks, paper_config);
  const SimResult idle = simulate(tasks, idle_config);
  // Waiting for a full idle instant can only extend HI residency.
  EXPECT_GE(idle.metrics.hi_mode_time, paper.metrics.hi_mode_time - 1e-9);
  EXPECT_GT(idle.metrics.hi_mode_time, 0.0);
  // Neither policy may cost an HC deadline.
  EXPECT_EQ(paper.metrics.hc_deadline_misses, 0U);
  EXPECT_EQ(idle.metrics.hc_deadline_misses, 0U);
}

TEST(Sim, PerTaskResponseTimes) {
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 20.0, 30.0, 100.0, 10.0));
  tasks.add(mc::McTask::low("l", 15.0, 200.0));
  SimConfig config;
  config.horizon = 20000.0;
  const SimResult r = simulate(tasks, config);
  ASSERT_EQ(r.metrics.per_task.size(), 2U);
  const TaskSimStats& hc = r.metrics.per_task[0];
  const TaskSimStats& lc = r.metrics.per_task[1];
  EXPECT_EQ(hc.released, 200U);
  EXPECT_EQ(hc.completed, 200U);
  // The HC task has highest priority at release: response == exec time.
  EXPECT_NEAR(hc.max_response, 10.0, 1e-6);
  EXPECT_NEAR(hc.mean_response(), 10.0, 1e-6);
  // The LC job can be delayed by the HC job but must meet its deadline.
  EXPECT_EQ(lc.completed, lc.released);
  EXPECT_LE(lc.max_response, 200.0 + 1e-6);
  EXPECT_GE(lc.mean_response(), 15.0 - 1e-6);
}

TEST(Sim, ResponsePercentilesTracked) {
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 20.0, 30.0, 100.0, 10.0));
  tasks.add(mc::McTask::low("l", 15.0, 150.0));
  SimConfig config;
  config.horizon = 60000.0;
  config.response_reservoir = 256;
  const SimResult r = simulate(tasks, config);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskSimStats& ts = r.metrics.per_task[i];
    EXPECT_GT(ts.p95_response, 0.0);
    EXPECT_LE(ts.p95_response, ts.p99_response + 1e-9);
    EXPECT_LE(ts.p99_response, ts.max_response + 1e-9);
    EXPECT_GE(ts.p95_response, ts.mean_response() * 0.5);
  }
  // Disabled by default.
  SimConfig off = config;
  off.response_reservoir = 0;
  const SimResult r_off = simulate(tasks, off);
  EXPECT_DOUBLE_EQ(r_off.metrics.per_task[0].p95_response, 0.0);
}

TEST(Sim, ResponseTimesBoundedByDeadlineWhenSchedulable) {
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h1", 10.0, 20.0, 100.0, 8.0));
  tasks.add(deterministic_hc("h2", 15.0, 25.0, 150.0, 12.0));
  tasks.add(mc::McTask::low("l", 30.0, 300.0));
  const sched::EdfVdResult vd = sched::edf_vd_test(tasks);
  ASSERT_TRUE(vd.schedulable);
  SimConfig config;
  config.horizon = 60000.0;
  config.x = vd.x;
  const SimResult r = simulate(tasks, config);
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_LE(r.metrics.per_task[i].max_response,
              tasks[i].deadline() + 1e-6)
        << tasks[i].name;
}

TEST(Sim, TraceRecordsWhenEnabled) {
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 20.0, 30.0, 100.0, 25.0));
  SimConfig config;
  config.horizon = 500.0;
  config.trace_capacity = 100;
  const SimResult r = simulate(tasks, config);
  EXPECT_GT(r.trace.total_recorded(), 0U);
  const std::string rendered = r.trace.render();
  EXPECT_NE(rendered.find("mode->HI"), std::string::npos);
  EXPECT_NE(rendered.find("complete"), std::string::npos);
}

TEST(Sim, EmptyTaskSetIsANoop) {
  mc::TaskSet tasks;
  SimConfig config;
  config.horizon = 1000.0;
  const SimResult r = simulate(tasks, config);
  EXPECT_EQ(r.metrics.hc_jobs_released, 0U);
  EXPECT_EQ(r.metrics.lc_jobs_released, 0U);
  EXPECT_DOUBLE_EQ(r.metrics.busy_time, 0.0);
}

TEST(Sim, PartitionedSimulationAggregates) {
  mc::TaskSet core0;
  core0.add(deterministic_hc("h0", 20.0, 30.0, 100.0, 10.0));
  mc::TaskSet core1;
  core1.add(deterministic_hc("h1", 15.0, 25.0, 100.0, 20.0));  // overruns
  core1.add(mc::McTask::low("l1", 10.0, 200.0));
  SimConfig config;
  config.horizon = 10000.0;
  const MulticoreSimResult r =
      simulate_partitioned({core0, core1}, {1.0, 1.0}, config);
  ASSERT_EQ(r.cores.size(), 2U);
  EXPECT_EQ(r.combined.hc_jobs_released,
            r.cores[0].metrics.hc_jobs_released +
                r.cores[1].metrics.hc_jobs_released);
  EXPECT_EQ(r.combined.mode_switches, r.cores[1].metrics.mode_switches);
  EXPECT_EQ(r.combined.hc_deadline_misses, 0U);
  EXPECT_GT(r.combined.lc_jobs_released, 0U);
}

TEST(Sim, PartitionedCombinedPerTaskStats) {
  // Regression: the combined view used to sum only the scalar counters
  // and left combined.per_task empty, so per-task statistics silently
  // vanished from multicore results. The combined per-task vector must
  // concatenate the per-core stats in core order and satisfy the job
  // accounting identity.
  mc::TaskSet core0;
  core0.add(deterministic_hc("h0", 20.0, 30.0, 100.0, 10.0));
  mc::TaskSet core1;
  core1.add(deterministic_hc("h1", 15.0, 25.0, 100.0, 20.0));  // overruns
  core1.add(mc::McTask::low("l1", 10.0, 200.0));
  SimConfig config;
  config.horizon = 10000.0;
  config.lc_policy = LcPolicy::kDropAll;
  const MulticoreSimResult r =
      simulate_partitioned({core0, core1}, {1.0, 1.0}, config);
  ASSERT_EQ(r.combined.per_task.size(), 3U);
  std::uint64_t released = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t pending = 0;
  for (const TaskSimStats& ts : r.combined.per_task) {
    EXPECT_EQ(ts.released, ts.completed + ts.dropped + ts.pending_at_horizon);
    released += ts.released;
    completed += ts.completed;
    dropped += ts.dropped;
    pending += ts.pending_at_horizon;
  }
  EXPECT_EQ(released, completed + dropped + pending);
  EXPECT_EQ(released,
            r.combined.hc_jobs_released + r.combined.lc_jobs_released);
  EXPECT_EQ(completed,
            r.combined.hc_jobs_completed + r.combined.lc_jobs_completed);
  // Core order: h0 first, then core1's tasks in task order.
  EXPECT_EQ(r.combined.per_task[0].released,
            r.cores[0].metrics.per_task[0].released);
  EXPECT_EQ(r.combined.per_task[1].released,
            r.cores[1].metrics.per_task[0].released);
}

TEST(Sim, PartitionedValidation) {
  SimConfig config;
  EXPECT_THROW((void)simulate_partitioned({mc::TaskSet{}}, {1.0, 0.5},
                                          config),
               std::invalid_argument);
}

TEST(Sim, Validation) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("l", 10.0, 100.0));
  SimConfig config;
  config.horizon = 0.0;
  EXPECT_THROW((void)simulate(tasks, config), std::invalid_argument);
  config.horizon = 100.0;
  config.x = 0.0;
  EXPECT_THROW((void)simulate(tasks, config), std::invalid_argument);
  config.x = 1.0;
  tasks.add(mc::McTask::low("bad", 0.0, 100.0));
  EXPECT_THROW((void)simulate(tasks, config), std::invalid_argument);
}

// Golden: every output bit of the engine. FNV-1a over every SimMetrics
// field (per_task and the reservoir percentiles included) and every field
// of every in-memory trace event, with dispatch tracing on, for generated
// sets of both design-flow families (the paper's task sizes and many small
// tasks) at U 0.6-3.0 under a fixed Chebyshev assignment. Overloaded sets
// simulated at x = 1 miss at D = T, exactly at their task's next release.
// The configurations cover the three LC policies, jitter 0 and 0.5, both
// back-switch rules, context- and mode-switch overheads, constrained
// deadlines, virtual deadlines and the response reservoir. Any change to
// the event core that moves one bit or one event flips the digest.
constexpr std::uint64_t kGoldenSimOutputs = 0x79a6ac6f2d396299ULL;

class Fnv {
 public:
  void mix(std::uint64_t v) {
    hash_ ^= v;
    hash_ *= 0x100000001b3ULL;
  }
  void mix(double x) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    mix(u);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void mix_result(const SimResult& r, Fnv& fnv) {
  const SimMetrics& m = r.metrics;
  for (const double v : {m.horizon, m.busy_time, m.hi_mode_time,
                         m.overhead_time})
    fnv.mix(v);
  for (const std::uint64_t v :
       {m.hc_jobs_released, m.hc_jobs_completed, m.hc_jobs_overrun,
        m.hc_deadline_misses, m.lc_jobs_released, m.lc_jobs_completed,
        m.lc_jobs_dropped, m.lc_jobs_degraded, m.lc_deadline_misses,
        m.mode_switches, m.context_switches})
    fnv.mix(v);
  for (const TaskSimStats& ts : m.per_task) {
    for (const std::uint64_t v : {ts.released, ts.completed, ts.dropped,
                                  ts.deadline_misses, ts.pending_at_horizon})
      fnv.mix(v);
    for (const double v : {ts.max_response, ts.total_response,
                           ts.p95_response, ts.p99_response})
      fnv.mix(v);
  }
  fnv.mix(static_cast<std::uint64_t>(r.trace.total_recorded()));
  for (const TraceEvent& e : r.trace.events()) {
    fnv.mix(e.time);
    fnv.mix(static_cast<std::uint64_t>(e.kind));
    fnv.mix(static_cast<std::uint64_t>(e.task));
    fnv.mix(static_cast<std::uint64_t>(e.hi_mode));
    fnv.mix(static_cast<std::uint64_t>(e.virtual_deadline));
    fnv.mix(e.release);
    fnv.mix(e.value);
  }
}

std::vector<mc::TaskSet> golden_sets() {
  struct Family {
    double task_util_min;
    double task_util_max;
    double gap_min;
    double gap_max;
  };
  // The design-flow families draw WCET^pes/ACET gaps of 8-64, so even
  // U = 3 sets are lightly loaded in practice and miss only behind the
  // budget server; the third family's gaps of 1.5-3 overload the
  // processor, so jobs expire under every policy.
  constexpr Family kFamilies[] = {
      {0.05, 0.25, 8.0, 64.0}, {0.02, 0.05, 8.0, 64.0}, {0.05, 0.25, 1.5, 3.0}};
  constexpr double kUBounds[] = {0.6, 1.2, 1.8, 2.4, 3.0};
  std::vector<mc::TaskSet> sets;
  std::uint64_t index = 0;
  for (const Family& family : kFamilies) {
    taskgen::GeneratorConfig gen;
    gen.task_util_min = family.task_util_min;
    gen.task_util_max = family.task_util_max;
    gen.gap_min = family.gap_min;
    gen.gap_max = family.gap_max;
    for (const double u : kUBounds) {
      common::Rng rng(common::index_seed(2026, index++));
      mc::TaskSet tasks;
      do {
        tasks = taskgen::generate_mixed(gen, u, rng);
      } while (tasks.count(mc::Criticality::kHigh) == 0);
      const std::vector<double> n(tasks.count(mc::Criticality::kHigh),
                                  index % 2 == 0 ? 1.0 : 2.5);
      (void)core::apply_chebyshev_assignment(tasks, n);
      sets.push_back(std::move(tasks));
    }
  }
  return sets;
}

std::vector<SimConfig> golden_configs() {
  SimConfig base;
  base.horizon = 20000.0;
  base.trace_capacity = std::size_t{1} << 22;
  base.trace_dispatch = true;
  std::vector<SimConfig> configs;
  for (const LcPolicy policy :
       {LcPolicy::kDropAll, LcPolicy::kDegradeHalf, LcPolicy::kServer}) {
    SimConfig c = base;
    c.lc_policy = policy;
    for (const double jitter : {0.0, 0.5}) {
      for (const BackSwitchPolicy back :
           {BackSwitchPolicy::kNoReadyHc, BackSwitchPolicy::kIdleInstant}) {
        c.release_jitter = jitter;
        c.back_switch = back;
        configs.push_back(c);
      }
    }
    c.release_jitter = 0.0;
    c.back_switch = BackSwitchPolicy::kNoReadyHc;
    SimConfig overheads = c;
    overheads.context_switch_ms = 0.05;
    overheads.mode_switch_ms = 0.5;
    configs.push_back(overheads);
    SimConfig reservoir = c;
    reservoir.response_reservoir = 16;
    configs.push_back(reservoir);
    SimConfig virtual_deadlines = c;
    virtual_deadlines.x = 0.7;
    configs.push_back(virtual_deadlines);
  }
  return configs;
}

/// The same set with every relative deadline at 0.8 of its period.
mc::TaskSet constrained(const mc::TaskSet& tasks) {
  mc::TaskSet out;
  for (const mc::McTask& task : tasks)
    out.add(task.with_deadline(0.8 * task.period));
  return out;
}

TEST(SimGolden, MetricsAndTraceEventsArePinned) {
  const std::vector<mc::TaskSet> sets = golden_sets();
  Fnv fnv;
  for (const SimConfig& base : golden_configs()) {
    for (std::size_t s = 0; s < sets.size(); ++s) {
      SimConfig config = base;
      config.seed = common::index_seed(7, s);
      mix_result(simulate(sets[s], config), fnv);
      if (config.x == 1.0 && config.release_jitter == 0.0)
        mix_result(simulate(constrained(sets[s]), config), fnv);
    }
  }
  EXPECT_EQ(fnv.value(), kGoldenSimOutputs)
      << std::hex << "0x" << fnv.value();
}

}  // namespace
}  // namespace mcs::sim
