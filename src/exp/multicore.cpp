#include "exp/multicore.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"
#include "sched/policies.hpp"
#include "taskgen/generator.hpp"

namespace mcs::exp {

namespace {

/// Assigns C^LO to every HC task by lambda[1/4,1] or Chebyshev n = 0.
mc::TaskSet assign(const mc::TaskSet& tasks, bool chebyshev,
                   common::Rng& rng) {
  mc::TaskSet out = tasks;
  const sched::LambdaRangePolicy lambda_policy(0.25, 1.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    mc::McTask& task = out[i];
    if (task.criticality != mc::Criticality::kHigh) continue;
    if (chebyshev) {
      task.wcet_lo = core::chebyshev_wcet_opt(task.stats->acet,
                                              task.stats->sigma, 0.0,
                                              task.wcet_hi);
    } else {
      sched::HcTaskProfile profile{task.stats->acet, task.stats->sigma,
                                   task.wcet_hi, task.period, nullptr};
      task.wcet_lo =
          std::clamp(lambda_policy.wcet_opt(profile, rng), 1e-9,
                     task.wcet_hi);
    }
  }
  return out;
}

}  // namespace

std::vector<MulticorePoint> run_multicore(
    const std::vector<std::size_t>& cores,
    const std::vector<double>& u_values, std::size_t tasksets,
    std::uint64_t seed) {
  std::vector<MulticorePoint> points;
  taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  for (const std::size_t m : cores) {
    for (const double u : u_values) {
      MulticorePoint point;
      point.cores = m;
      point.u_bound_per_core = u;
      const std::uint64_t base =
          seed + 1000 * m + static_cast<std::uint64_t>(u * 100.0);
      struct Verdict {
        bool lambda_ok = false;
        bool chebyshev_ok = false;
      };
      const std::vector<Verdict> verdicts =
          common::parallel_map(tasksets, [&](std::size_t t) {
            common::Rng set_rng(common::index_seed(base, t));
            const mc::TaskSet tasks = taskgen::generate_mixed(
                config, u * static_cast<double>(m), set_rng);
            const mc::TaskSet with_lambda = assign(tasks, false, set_rng);
            const mc::TaskSet with_chebyshev = assign(tasks, true, set_rng);
            Verdict v;
            v.lambda_ok =
                sched::partition_tasks(with_lambda, m,
                                       sched::PartitionHeuristic::kWorstFit)
                    .feasible;
            v.chebyshev_ok =
                sched::partition_tasks(with_chebyshev, m,
                                       sched::PartitionHeuristic::kWorstFit)
                    .feasible;
            return v;
          });
      std::size_t lambda_ok = 0;
      std::size_t chebyshev_ok = 0;
      for (const Verdict& v : verdicts) {
        if (v.lambda_ok) ++lambda_ok;
        if (v.chebyshev_ok) ++chebyshev_ok;
      }
      const auto denom = static_cast<double>(tasksets);
      point.lambda_acceptance = static_cast<double>(lambda_ok) / denom;
      point.chebyshev_acceptance = static_cast<double>(chebyshev_ok) / denom;
      points.push_back(point);
    }
  }
  return points;
}

common::Table render_multicore(const std::vector<MulticorePoint>& points) {
  common::Table table({"cores", "U_bound/core", "lambda[1/4,1]",
                       "Chebyshev scheme"});
  table.set_title(
      "Extension E1: partitioned multicore acceptance ratio "
      "(worst-fit decreasing, per-core EDF-VD)");
  for (const MulticorePoint& p : points) {
    table.add_row({std::to_string(p.cores),
                   common::format_double(p.u_bound_per_core, 3),
                   common::format_percent(p.lambda_acceptance),
                   common::format_percent(p.chebyshev_acceptance)});
  }
  return table;
}

}  // namespace mcs::exp
