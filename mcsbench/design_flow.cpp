// design_flow: the paper's design flow over a batch of generated task
// sets. Each set goes through core::optimize_multipliers_ga (default GA),
// core::apply_chebyshev_assignment, sched::edf_vd_test and sim::simulate;
// admitted sets simulate at the analysis x, rejected sets at x = 1, as
// `mcs-cli campaign` does. Sets run on a fixed-size common::ThreadPool.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"
#include "core/objective.hpp"
#include "core/optimizer.hpp"
#include "sched/edf_vd.hpp"
#include "sim/engine.hpp"
#include "taskgen/generator.hpp"
#include "workloads.hpp"

namespace mcsbench {

namespace {

namespace core = mcs::core;
namespace mc = mcs::mc;
using mcs::common::index_seed;
using mcs::common::Rng;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kSetsPerPoint = 40;
/// Under- and overload around the EDF-VD limit.
constexpr double kUBounds[] = {0.6, 0.9, 1.2, 1.5, 1.8};

struct Family {
  const char* name;
  double task_util_min;
  double task_util_max;
  double horizon_ms;  ///< sized so GA and simulation each take >= 1/3
};
/// Paper defaults (~3.4 HC tasks per set) and many small tasks (~15 HC
/// tasks per set).
constexpr Family kFamilies[] = {{"paper", 0.05, 0.25, 3e5},
                                {"many", 0.02, 0.05, 1e5}};

struct SetInput {
  mc::TaskSet tasks;
  double horizon_ms = 0.0;
  std::uint64_t ga_seed = 0;
  std::uint64_t sim_seed = 0;
};

struct SetOutput {
  core::OptimizationResult opt;
  bool admitted = false;
  double x = 1.0;
  mcs::sim::SimMetrics metrics;
  // Spans (seconds); the untraced run records only the whole flow.
  double flow_s = 0.0;
  double optimize_s = 0.0;
  double edf_vd_s = 0.0;
  double simulate_s = 0.0;
};

std::vector<SetInput> generate(std::uint64_t seed, double* seconds) {
  const Clock::time_point t0 = Clock::now();
  std::vector<SetInput> sets;
  std::uint64_t index = 0;
  for (const Family& family : kFamilies) {
    mcs::taskgen::GeneratorConfig gen;
    gen.task_util_min = family.task_util_min;
    gen.task_util_max = family.task_util_max;
    for (const double u : kUBounds) {
      for (std::size_t i = 0; i < kSetsPerPoint; ++i, ++index) {
        Rng rng(index_seed(seed, index));
        SetInput set;
        // The GA needs at least one HC task; redraw from the same stream.
        do {
          set.tasks = mcs::taskgen::generate_mixed(gen, u, rng);
        } while (set.tasks.count(mc::Criticality::kHigh) == 0);
        set.horizon_ms = family.horizon_ms;
        set.ga_seed = index_seed(seed + 1, index);
        set.sim_seed = index_seed(seed + 2, index);
        sets.push_back(std::move(set));
      }
    }
  }
  *seconds = seconds_since(t0);
  return sets;
}

void run_set(const SetInput& in, bool traced, SetOutput* out) {
  const Clock::time_point t0 = Clock::now();
  core::OptimizerConfig config;
  config.ga.seed = in.ga_seed;
  out->opt = core::optimize_multipliers_ga(in.tasks, config);
  const Clock::time_point t1 = traced ? Clock::now() : t0;
  mc::TaskSet assigned = in.tasks;
  (void)core::apply_chebyshev_assignment(assigned, out->opt.n);
  const Clock::time_point t2 = traced ? Clock::now() : t0;
  const mcs::sched::EdfVdResult vd = mcs::sched::edf_vd_test(assigned);
  const Clock::time_point t3 = traced ? Clock::now() : t0;
  mcs::sim::SimConfig sim;
  sim.horizon = in.horizon_ms;
  sim.seed = in.sim_seed;
  out->admitted = vd.schedulable && vd.x > 0.0;
  sim.x = out->admitted ? vd.x : 1.0;
  out->x = sim.x;
  out->metrics = mcs::sim::simulate(assigned, sim).metrics;
  const Clock::time_point t4 = Clock::now();
  out->flow_s = seconds_between(t0, t4);
  if (traced) {
    out->optimize_s = seconds_between(t0, t1);
    out->edf_vd_s = seconds_between(t2, t3);
    out->simulate_s = seconds_between(t3, t4);
  }
}

std::uint64_t output_hash(const std::vector<SetOutput>& outputs) {
  Fnv h;
  for (const SetOutput& o : outputs) {
    for (const double n : o.opt.n) h.add_double(n);
    h.add_double(o.opt.breakdown.objective);
    h.add_u64(o.admitted ? 1 : 0);
    h.add_double(o.x);
    const mcs::sim::SimMetrics& m = o.metrics;
    for (const std::uint64_t v :
         {m.hc_jobs_released, m.hc_jobs_completed, m.hc_jobs_overrun,
          m.hc_deadline_misses, m.lc_jobs_released, m.lc_jobs_completed,
          m.lc_jobs_dropped, m.lc_deadline_misses, m.mode_switches})
      h.add_u64(v);
    h.add_double(m.busy_time);
  }
  return h.value();
}

/// Span sums of the traced rounds, plus per-round timings.
struct Spans {
  std::vector<double> optimize_ms;
  std::vector<double> simulate_ms;
  double optimize_s = 0.0;
  double simulate_s = 0.0;
  double edf_vd_s = 0.0;
  double flow_s = 0.0;
  std::vector<double> traced_round_s;
  std::vector<double> untraced_round_s;
  std::vector<double> generate_us;
};

}  // namespace

Result run_design_flow(const Options& options) {
  Result result;
  // Pinned parallelism: nested parallel regions inside the GA run inline
  // on the pool workers, and nothing falls back to hardware_jobs().
  mcs::common::set_default_jobs(kThreads);

  std::vector<SetInput> sets;
  std::vector<SetOutput> reference;  ///< round 0, which the checks inspect
  std::uint64_t rounds = 0;
  std::uint64_t matching_rounds = 0;
  Spans spans;
  std::unique_ptr<mcs::common::ThreadPool> pool;
  while (rounds <= kWarmupRounds || result.timed_s() < options.seconds) {
    // The traced run alternates traced and untraced rounds, so the span
    // overhead is measured on the same work.
    const bool traced = options.trace && rounds % 2 == 1;
    pool.reset();
    const Clock::time_point setup = Clock::now();
    double generate_s = 0.0;
    sets = generate(options.seed, &generate_s);
    pool = std::make_unique<mcs::common::ThreadPool>(kThreads);
    result.setups_s.push_back(seconds_since(setup));

    std::vector<SetOutput> outputs(sets.size());
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;  // guarded by error_mutex
    const Clock::time_point start = Clock::now();
    for (std::size_t t = 0; t < kThreads; ++t)
      pool->submit([&] {
        try {
          for (std::size_t i; (i = next.fetch_add(1)) < sets.size();)
            run_set(sets[i], traced, &outputs[i]);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      });
    pool->wait_idle();
    const double round_s = seconds_since(start);
    if (error) std::rethrow_exception(error);

    std::vector<double> latencies_ms;
    for (const SetOutput& o : outputs) {
      latencies_ms.push_back(1e3 * o.flow_s);
      if (!traced) continue;
      spans.optimize_ms.push_back(1e3 * o.optimize_s);
      spans.simulate_ms.push_back(1e3 * o.simulate_s);
      spans.optimize_s += o.optimize_s;
      spans.simulate_s += o.simulate_s;
      spans.edf_vd_s += o.edf_vd_s;
      spans.flow_s += o.flow_s;
    }
    result.add_round(sets.size(), round_s, std::move(latencies_ms));
    if (rounds >= kWarmupRounds) {
      spans.generate_us.push_back(1e6 * generate_s /
                                  static_cast<double>(sets.size()));
      (traced ? spans.traced_round_s : spans.untraced_round_s)
          .push_back(round_s);
    }
    const std::uint64_t hash = output_hash(outputs);
    if (rounds == 0) {
      result.output_hash = hash;
      reference = std::move(outputs);
    }
    if (hash == result.output_hash) ++matching_rounds;
    else
      result.fail(sets.size(), "round " + std::to_string(rounds) +
                                   " outputs differ from round 0");
    ++rounds;
  }
  pool.reset();

  Fnv inputs;
  for (const SetInput& set : sets)
    for (const mc::McTask& task : set.tasks.tasks()) {
      inputs.add(task.name);
      inputs.add_double(task.wcet_lo);
      inputs.add_double(task.wcet_hi);
      inputs.add_double(task.period);
      inputs.add_double(task.stats ? task.stats->acet : 0.0);
      inputs.add_double(task.stats ? task.stats->sigma : 0.0);
    }
  result.input_hash = inputs.value();

  // Output checks on the reference round, which every matching round
  // reproduces bit for bit: the paper's guarantee (an EDF-VD-admitted set
  // never misses an HC deadline in simulation) and the GA's reported
  // objective against a fresh evaluation of its winner.
  std::vector<double> evaluate_us;
  std::uint64_t evaluations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t jobs = 0;
  std::uint64_t mode_switches = 0;
  std::uint64_t admitted = 0;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const SetOutput& o = reference[i];
    const core::ObjectiveBreakdown check =
        core::evaluate_multipliers(sets[i].tasks, o.opt.n);
    if (options.trace) {
      // Warm per-call cost of the objective, as the GA's loop sees it.
      constexpr int kCalls = 32;
      const Clock::time_point t0 = Clock::now();
      for (int call = 0; call < kCalls; ++call)
        (void)core::evaluate_multipliers(sets[i].tasks, o.opt.n);
      evaluate_us.push_back(1e6 * seconds_since(t0) / kCalls);
    }
    const std::string where = "set " + std::to_string(i) + ": ";
    if (check.objective != o.opt.breakdown.objective)
      result.fail(matching_rounds, where + "GA objective differs from "
                                           "evaluate_multipliers on its winner");
    else if (o.admitted && o.metrics.hc_deadline_misses != 0)
      result.fail(matching_rounds,
                  where + "EDF-VD-admitted set missed an HC deadline");
    evaluations += o.opt.search.evaluations;
    cache_hits += o.opt.search.cache_hits;
    jobs += o.metrics.hc_jobs_released + o.metrics.lc_jobs_released;
    mode_switches += o.metrics.mode_switches;
    admitted += o.admitted ? 1 : 0;
  }
  result.counts = {{"ga.evaluations", evaluations}, {"sim.jobs", jobs}};
  result.rss_mb = peak_rss_mb();
  result.facts = {{"pool_threads", std::to_string(kThreads)},
                  {"default_jobs",
                   std::to_string(mcs::common::default_jobs())},
                  {"rounds", std::to_string(rounds)},
                  {"sets", std::to_string(sets.size())}};
  if (!options.trace) return result;

  // Per-layer breakdown; per-set figures come from the traced rounds.
  const double traced_sets = static_cast<double>(spans.optimize_ms.size());
  const double n_sets = static_cast<double>(sets.size());
  const double evaluate = mean(evaluate_us);
  result.layer("taskgen.generate_us", median(spans.generate_us), "us");
  result.layer("optimizer.optimize_ms.p50",
               percentile(spans.optimize_ms, 0.5), "ms");
  result.layer("optimizer.optimize_ms.p99",
               percentile(spans.optimize_ms, 0.99), "ms");
  result.layer("optimizer.set_share", spans.optimize_s / spans.flow_s,
               "ratio");
  result.layer("ga.evaluations", static_cast<double>(evaluations), "count");
  result.layer("ga.cache_hits", static_cast<double>(cache_hits), "count");
  result.layer("ga.self_share",
               1.0 - static_cast<double>(evaluations) * evaluate * 1e-6 /
                         (spans.optimize_s / traced_sets * n_sets),
               "ratio");
  result.layer("objective.evaluate_us", evaluate, "us");
  result.layer("sched.edf_vd_us", 1e6 * spans.edf_vd_s / traced_sets, "us");
  result.layer("sched.admitted_share", static_cast<double>(admitted) / n_sets,
               "ratio");
  result.layer("sim.simulate_ms.p50", percentile(spans.simulate_ms, 0.5),
               "ms");
  result.layer("sim.simulate_ms.p99", percentile(spans.simulate_ms, 0.99),
               "ms");
  result.layer("sim.set_share", spans.simulate_s / spans.flow_s, "ratio");
  result.layer("sim.ns_per_job",
               1e9 * spans.simulate_s / traced_sets * n_sets /
                   static_cast<double>(jobs),
               "ns");
  result.layer("sim.jobs", static_cast<double>(jobs), "count");
  result.layer("sim.mode_switches", static_cast<double>(mode_switches),
               "count");
  double traced_wall_s = 0.0;
  for (const double s : spans.traced_round_s) traced_wall_s += s;
  result.layer("pool.busy_share",
               spans.flow_s / (static_cast<double>(kThreads) * traced_wall_s),
               "ratio");
  result.layer("trace.overhead_share",
               median(spans.traced_round_s) /
                       median(spans.untraced_round_s) -
                   1.0,
               "ratio");
  return result;
}

}  // namespace mcsbench
