// Invariant oracle for the EDF-VD simulator: randomized task sets are run
// through the engine with dispatch tracing on, and every invariant the
// operational model (Section III) promises is re-derived from the task
// set and checked against the recorded scheduler decisions:
//
//  (a) admission soundness — when the Baruah et al. test (Eq. 8) admits a
//      Chebyshev-assigned set, the simulation shows zero HC deadline
//      misses;
//  (b) virtual deadlines are used exactly for HC jobs in LO mode, with
//      the value release + x * period, and never in HI mode;
//  (c) every LC budget degraded in HI mode is restored to the full
//      C^LO at the HI -> LO back-switch;
//  (f) constrained deadlines (D < T) flow through dispatch keys and the
//      processor-demand admission test end to end.
//
// The oracle does not trust the engine's flags alone: dispatch events
// carry the absolute deadline the EDF comparison actually used, which is
// recomputed here from the task parameters. Trace events identify tasks
// by index into the simulated set, so the oracle indexes directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"
#include "mc/taskset.hpp"
#include "sched/dbf.hpp"
#include "sched/edf_vd.hpp"
#include "sim/engine.hpp"
#include "stats/distributions.hpp"
#include "taskgen/generator.hpp"

namespace mcs::sim {
namespace {

constexpr double kEps = 1e-6;

/// One randomized Chebyshev-assigned task set. `n` is clamped by Eq. 9
/// inside apply_chebyshev_assignment.
mc::TaskSet make_assigned_set(std::uint64_t seed, double u_bound, double n) {
  taskgen::GeneratorConfig config;
  common::Rng rng(common::index_seed(991, seed));
  mc::TaskSet tasks = taskgen::generate_mixed(config, u_bound, rng);
  const std::vector<double> genes(tasks.count(mc::Criticality::kHigh), n);
  (void)core::apply_chebyshev_assignment(tasks, genes);
  return tasks;
}

/// A Chebyshev-assigned set with constrained deadlines: every task's
/// deadline is shrunk to a random fraction of its period (never below
/// C^HI, so the task stays valid).
mc::TaskSet make_constrained_set(std::uint64_t seed, double u_bound,
                                 double n) {
  mc::TaskSet tasks = make_assigned_set(seed, u_bound, n);
  common::Rng rng(common::index_seed(992, seed));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const double frac = rng.uniform(0.6, 1.0);
    const double d = std::max(tasks[i].wcet_hi, frac * tasks[i].period);
    tasks[i] = tasks[i].with_deadline(d);
  }
  return tasks;
}

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

TEST(SimOracle, AdmittedSetsNeverMissHcDeadlines) {
  // Oracle (a): over 120 randomized sets spanning three utilization
  // bounds, every set the EDF-VD test admits must simulate miss-free
  // with the analysis' own x.
  std::size_t admitted = 0;
  for (std::uint64_t s = 0; s < 120; ++s) {
    const double u_bound = 0.4 + 0.2 * static_cast<double>(s % 3);
    const mc::TaskSet tasks = make_assigned_set(s, u_bound, 3.0);
    // All-LC draws are trivially admitted and exercise nothing here.
    if (tasks.count(mc::Criticality::kHigh) == 0) continue;
    const sched::EdfVdResult vd = sched::edf_vd_test(tasks);
    if (!vd.schedulable) continue;
    ++admitted;
    SimConfig config;
    config.horizon = 20000.0;
    config.x = vd.x;
    config.seed = 1000 + s;
    const SimResult r = simulate(tasks, config);
    EXPECT_EQ(r.metrics.hc_deadline_misses, 0U)
        << "set " << s << " u_bound " << u_bound << " x " << vd.x;
    EXPECT_GT(r.metrics.hc_jobs_released, 0U);
  }
  // The invariant must actually have been exercised.
  EXPECT_GE(admitted, 60U);
}

TEST(SimOracle, DispatchDeadlinesMatchTheModel) {
  // Oracle (b): re-derive every dispatch's deadline from the task set.
  // A stressed assignment (n = 1) forces overruns so HI-mode dispatches
  // occur too.
  std::size_t virtual_dispatches = 0;
  std::size_t hi_dispatches = 0;
  for (std::uint64_t s = 0; s < 60; ++s) {
    const double u_bound = 0.4 + 0.2 * static_cast<double>(s % 3);
    const mc::TaskSet tasks = make_assigned_set(s, u_bound, 1.0);
    const sched::EdfVdResult vd = sched::edf_vd_test(tasks);
    SimConfig config;
    config.horizon = 5000.0;
    config.x = vd.schedulable ? vd.x : 1.0;
    config.seed = 2000 + s;
    config.trace_capacity = 100000;
    config.trace_dispatch = true;
    const SimResult r = simulate(tasks, config);
    for (const TraceEvent& event : r.trace.events()) {
      if (event.kind != TraceEventKind::kDispatch) continue;
      ASSERT_LT(event.task, tasks.size()) << "set " << s;
      const mc::McTask& task = tasks[event.task];
      const bool hc = task.criticality == mc::Criticality::kHigh;
      if (event.hi_mode) ++hi_dispatches;
      // Virtual deadlines are used iff the job is HC and the mode is LO.
      EXPECT_EQ(event.virtual_deadline, hc && !event.hi_mode)
          << "set " << s << " task " << task.name << " t " << event.time;
      if (event.virtual_deadline) {
        ++virtual_dispatches;
        EXPECT_NEAR(event.value, event.release + config.x * task.period,
                    kEps)
            << "set " << s << " task " << task.name;
      } else {
        EXPECT_NEAR(event.value, event.release + task.deadline(), kEps)
            << "set " << s << " task " << task.name;
      }
    }
  }
  // Both sides of the invariant must have been exercised.
  EXPECT_GT(virtual_dispatches, 0U);
  EXPECT_GT(hi_dispatches, 0U);
}

TEST(SimOracle, BackSwitchRestoresFullLcBudgets) {
  // Oracle (c): under the degrade-50% policy, every budget-restore event
  // at a HI -> LO back-switch must restore exactly the task's full C^LO,
  // must name an LC task, and must happen in LO mode.
  std::size_t restores = 0;
  for (std::uint64_t s = 0; s < 60; ++s) {
    const double u_bound = 0.5 + 0.15 * static_cast<double>(s % 3);
    // n = 0.5 puts C^LO barely above the mean: overruns (and therefore
    // HI dwell time spanning LC releases) are frequent.
    const mc::TaskSet tasks = make_assigned_set(s, u_bound, 0.5);
    if (tasks.count(mc::Criticality::kLow) == 0) continue;
    SimConfig config;
    config.horizon = 10000.0;
    config.x = 1.0;
    config.seed = 3000 + s;
    config.lc_policy = LcPolicy::kDegradeHalf;
    config.trace_capacity = 100000;
    config.trace_dispatch = true;
    const SimResult r = simulate(tasks, config);
    for (const TraceEvent& event : r.trace.events()) {
      if (event.kind != TraceEventKind::kBudgetRestore) continue;
      ++restores;
      ASSERT_LT(event.task, tasks.size()) << "set " << s;
      const mc::McTask& task = tasks[event.task];
      EXPECT_EQ(task.criticality, mc::Criticality::kLow)
          << "set " << s << " task " << task.name;
      EXPECT_FALSE(event.hi_mode) << "restore happens at the LO switch";
      EXPECT_NEAR(event.value, task.wcet_lo, kEps)
          << "set " << s << " task " << task.name;
    }
  }
  EXPECT_GT(restores, 0U);
}

TEST(SimOracle, PerTaskAccountingIdentityHolds) {
  // Oracle (d): every released job must be counted exactly once —
  //   released == completed + dropped + pending_at_horizon
  // per task, under every LC policy, and the per-task counters must sum
  // to the matching global counters. This pins the fix for expired
  // pending jobs, which used to vanish from all per-task accounting (and
  // from lc_jobs_dropped).
  for (const LcPolicy policy : {LcPolicy::kDropAll, LcPolicy::kDegradeHalf}) {
    std::uint64_t dropped_total = 0;
    std::uint64_t missed_total = 0;
    for (std::uint64_t s = 0; s < 60; ++s) {
      // The generator counts HC tasks at pessimistic utilization while
      // their actual demand is 8-64x smaller, so genuine overload (jobs
      // expiring past their deadlines, pending work at the horizon)
      // needs bound utilizations well above 1.
      const double u_bound = 1.8 + 0.4 * static_cast<double>(s % 3);
      const mc::TaskSet tasks = make_assigned_set(s, u_bound, 0.5);
      SimConfig config;
      config.horizon = 5000.0;
      config.x = 1.0;
      config.seed = 4000 + s;
      config.lc_policy = policy;
      const SimResult r = simulate(tasks, config);
      const SimMetrics& m = r.metrics;
      std::uint64_t released = 0;
      std::uint64_t completed = 0;
      std::uint64_t dropped = 0;
      std::uint64_t misses = 0;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const TaskSimStats& ts = m.per_task[i];
        EXPECT_EQ(ts.released,
                  ts.completed + ts.dropped + ts.pending_at_horizon)
            << "set " << s << " task " << tasks[i].name << " policy "
            << static_cast<int>(policy);
        released += ts.released;
        completed += ts.completed;
        dropped += ts.dropped;
        misses += ts.deadline_misses;
      }
      EXPECT_EQ(released, m.hc_jobs_released + m.lc_jobs_released);
      EXPECT_EQ(completed, m.hc_jobs_completed + m.lc_jobs_completed);
      EXPECT_EQ(misses, m.hc_deadline_misses + m.lc_deadline_misses);
      // Every global LC drop is attributed to some task; HC jobs are
      // never "dropped" globally, so the per-task sum can only exceed
      // lc_jobs_dropped by expired HC jobs (== HC expiry misses, which
      // are a subset of hc_deadline_misses).
      EXPECT_GE(dropped, m.lc_jobs_dropped);
      EXPECT_LE(dropped, m.lc_jobs_dropped + m.hc_deadline_misses);
      dropped_total += dropped;
      missed_total += misses;
    }
    // The identity must actually have been stressed: these overloaded
    // sets drop jobs and miss deadlines under every policy.
    EXPECT_GT(dropped_total, 0U) << "policy " << static_cast<int>(policy);
    EXPECT_GT(missed_total, 0U) << "policy " << static_cast<int>(policy);
  }
}

TEST(SimOracle, ReleaseRejectionsCountAsDropsNotMisses) {
  // Pins the drop-at-release accounting semantics documented in
  // sim/metrics.hpp: an LC job rejected at release while the system is in
  // HI mode under kDropAll never entered the ready queue, so it counts as
  // a drop only — never as a deadline miss. Misses are reserved for
  // admitted work that expired in the queue.
  //
  // Deterministic timeline per 100 ms period: h overruns C^LO = 10 at
  // t ~ 12.5 (l steals ~1 of every 5 ms before that) and holds HI mode
  // for its remaining 15 ms of demand. l releases every 5 ms, so 2-3
  // releases per period land inside the HI window and are rejected; every
  // admitted l job preempts h (deadline 5 vs. virtual deadline 100) and
  // completes in 1 ms, far ahead of its deadline.
  mc::TaskSet tasks;
  tasks.add(deterministic_hc("h", 10.0, 30.0, 100.0, 25.0));
  tasks.add(deterministic_lc("l", 2.0, 5.0, 1.0));
  SimConfig config;
  config.horizon = 20000.0;
  config.lc_policy = LcPolicy::kDropAll;
  const SimResult r = simulate(tasks, config);
  const SimMetrics& m = r.metrics;
  ASSERT_GT(m.mode_switches, 0U);
  EXPECT_EQ(m.mode_switches, m.hc_jobs_released);
  EXPECT_EQ(m.hc_deadline_misses, 0U);
  // HI-mode rejections happened (at least two per HI window)...
  EXPECT_GE(m.lc_jobs_dropped, 2 * m.mode_switches);
  // ...and none of them surfaced as a deadline miss.
  EXPECT_EQ(m.lc_deadline_misses, 0U);
  ASSERT_EQ(m.per_task.size(), 2U);
  const TaskSimStats& l = m.per_task[1];
  EXPECT_EQ(l.deadline_misses, 0U);
  EXPECT_EQ(l.dropped, m.lc_jobs_dropped);
  EXPECT_EQ(l.released, l.completed + l.dropped + l.pending_at_horizon);
}

TEST(SimOracle, ConstrainedDeadlineAdmittedSetsRunMissFree) {
  // Oracle (f), admission side: for constrained-deadline sets (D < T)
  // with C^LO pinned to C^HI (no overruns, so the system never leaves LO
  // mode and plain EDF on the LO-mode keys is what runs), the
  // processor-demand test on exactly those keys — x*T for HC virtual
  // deadlines, the real constrained D for LC — is a sufficient oracle:
  // admitted sets must simulate with zero misses and zero drops.
  std::size_t admitted = 0;
  for (std::uint64_t s = 0; s < 90; ++s) {
    const double u_bound = 0.3 + 0.1 * static_cast<double>(s % 3);
    mc::TaskSet tasks = make_constrained_set(s, u_bound, 3.0);
    if (tasks.count(mc::Criticality::kHigh) == 0) continue;
    // Pin C^LO = C^HI: demand is clamped to C^HI, so no job can overrun.
    double x = 1.0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i].criticality != mc::Criticality::kHigh) continue;
      tasks[i].wcet_lo = tasks[i].wcet_hi;
      x = std::min(x, tasks[i].deadline() / tasks[i].period);
    }
    // The EDF keys the simulator will use: HC jobs get release + x*T in
    // LO mode, LC jobs their real (constrained) deadline.
    mc::TaskSet keys = tasks;
    bool representable = true;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i].criticality != mc::Criticality::kHigh) continue;
      const double vd = x * keys[i].period;
      if (vd < keys[i].wcet_hi) {
        representable = false;  // would violate C <= D validity
        break;
      }
      keys[i].deadline_override = vd;
    }
    if (!representable) continue;
    const sched::DbfResult dbf = sched::edf_dbf_test(keys, mc::Mode::kLow);
    if (!dbf.schedulable || dbf.inconclusive) continue;
    ++admitted;
    SimConfig config;
    config.horizon = 20000.0;
    config.x = x;
    config.seed = 6000 + s;
    const SimResult r = simulate(tasks, config);
    EXPECT_EQ(r.metrics.mode_switches, 0U) << "set " << s;
    EXPECT_EQ(r.metrics.hc_deadline_misses, 0U)
        << "set " << s << " u_bound " << u_bound << " x " << x;
    EXPECT_EQ(r.metrics.lc_deadline_misses, 0U) << "set " << s;
    EXPECT_EQ(r.metrics.lc_jobs_dropped, 0U) << "set " << s;
    EXPECT_GT(r.metrics.hc_jobs_released, 0U);
  }
  EXPECT_GE(admitted, 25U);
}

TEST(SimOracle, ConstrainedDeadlineDispatchKeysUseTheOverride) {
  // Oracle (f), dispatch side: with D < T, non-virtual dispatch keys
  // (HI-mode HC jobs and all LC jobs) must be release + D — the shrunk
  // deadline, not the period — while LO-mode HC keys stay release + x*T.
  std::size_t constrained_dispatches = 0;
  std::size_t hi_dispatches = 0;
  for (std::uint64_t s = 0; s < 60; ++s) {
    const double u_bound = 0.4 + 0.2 * static_cast<double>(s % 3);
    // n = 1 keeps C^LO close to the mean so overruns (HI dispatches
    // against real constrained deadlines) are frequent.
    const mc::TaskSet tasks = make_constrained_set(s, u_bound, 1.0);
    double x = 1.0;
    for (const mc::McTask& task : tasks)
      if (task.criticality == mc::Criticality::kHigh)
        x = std::min(x, task.deadline() / task.period);
    SimConfig config;
    config.horizon = 5000.0;
    config.x = x;
    config.seed = 7000 + s;
    config.trace_capacity = 100000;
    config.trace_dispatch = true;
    const SimResult r = simulate(tasks, config);
    for (const TraceEvent& event : r.trace.events()) {
      if (event.kind != TraceEventKind::kDispatch) continue;
      ASSERT_LT(event.task, tasks.size()) << "set " << s;
      const mc::McTask& task = tasks[event.task];
      const bool hc = task.criticality == mc::Criticality::kHigh;
      EXPECT_EQ(event.virtual_deadline, hc && !event.hi_mode)
          << "set " << s << " task " << task.name << " t " << event.time;
      if (event.hi_mode) ++hi_dispatches;
      if (event.virtual_deadline) {
        EXPECT_NEAR(event.value, event.release + x * task.period, kEps)
            << "set " << s << " task " << task.name;
      } else {
        EXPECT_NEAR(event.value, event.release + task.deadline(), kEps)
            << "set " << s << " task " << task.name;
        if (task.deadline() < task.period - kEps) ++constrained_dispatches;
      }
    }
  }
  // Genuinely constrained (D < T) real-deadline keys must have been
  // exercised, including in HI mode.
  EXPECT_GT(constrained_dispatches, 0U);
  EXPECT_GT(hi_dispatches, 0U);
}

TEST(SimOracle, TracingOffRecordsNoDispatchEvents) {
  // Regression: the oracle hooks must be invisible unless opted into —
  // both with trace_dispatch unset (default) and with tracing disabled.
  const mc::TaskSet tasks = make_assigned_set(7, 0.6, 1.0);
  SimConfig config;
  config.horizon = 5000.0;
  config.seed = 7;
  config.trace_capacity = 100000;  // tracing on, dispatch opt-out
  config.lc_policy = LcPolicy::kDegradeHalf;  // budgets get restored
  const SimResult r = simulate(tasks, config);
  for (const TraceEvent& event : r.trace.events()) {
    EXPECT_NE(event.kind, TraceEventKind::kDispatch);
    EXPECT_NE(event.kind, TraceEventKind::kBudgetRestore);
  }
}

}  // namespace
}  // namespace mcs::sim
