#include "exp/ablation.hpp"

#include <algorithm>
#include <string>

#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"
#include "sched/edf_vd.hpp"
#include "taskgen/generator.hpp"
#include "taskgen/uunifast.hpp"

namespace mcs::exp {

namespace {

/// Adds LC filler tasks with total utilization `target` to `tasks`.
void add_lc_fill(mc::TaskSet& tasks, double target, common::Rng& rng) {
  if (target <= 1e-6) return;
  const auto count =
      std::max<std::size_t>(1, static_cast<std::size_t>(target / 0.15 + 0.5));
  const std::vector<double> utils =
      taskgen::uunifast(count, target, rng);
  for (std::size_t i = 0; i < utils.size(); ++i) {
    const double period = rng.uniform(100.0, 900.0);
    const double wcet = std::max(1e-6, utils[i] * period);
    tasks.add(mc::McTask::low("lcfill" + std::to_string(i), wcet, period));
  }
}

}  // namespace

std::vector<GaVsUniformPoint> run_ga_vs_uniform(
    const std::vector<double>& u_values, std::size_t tasksets,
    std::uint64_t seed, const core::OptimizerConfig& optimizer,
    const common::Executor& exec) {
  std::vector<GaVsUniformPoint> points;
  const taskgen::GeneratorConfig config;
  const auto [u_begin, u_end] = exec.range(u_values.size());
  points.reserve(u_end - u_begin);
  for (std::size_t p = u_begin; p < u_end; ++p) {
    const double u = u_values[p];
    const std::uint64_t base = seed + static_cast<std::uint64_t>(u * 1000.0);
    GaVsUniformPoint point;
    point.u_hc_hi = u;
    // Replication i draws its set, then its GA seed, from its own
    // index_seed stream; means reduced in replication order —
    // bit-identical at any --jobs value.
    struct Objectives {
      double uniform = 0.0;
      double ga = 0.0;
      double ga_gaussian = 0.0;
    };
    const std::vector<Objectives> results =
        common::parallel_map(tasksets, [&](std::size_t i) {
          common::Rng set_rng(common::index_seed(base, i));
          const mc::TaskSet tasks =
              taskgen::generate_hc_only(config, u, set_rng);
          const core::UniformSweepPoint uniform =
              core::best_uniform_n(tasks, 0.0, optimizer.n_cap, 0.5);
          core::OptimizerConfig opt = optimizer;
          opt.ga.seed = set_rng();
          const core::OptimizationResult ga =
              core::optimize_multipliers_ga(tasks, opt);
          core::OptimizerConfig gaussian_opt = opt;
          gaussian_opt.ga.mutation = ga::MutationKind::kGaussian;
          const core::OptimizationResult ga_gaussian =
              core::optimize_multipliers_ga(tasks, gaussian_opt);
          return Objectives{uniform.breakdown.objective,
                            ga.breakdown.objective,
                            ga_gaussian.breakdown.objective};
        });
    for (const Objectives& r : results) {
      point.uniform_objective += r.uniform;
      point.ga_objective += r.ga;
      point.ga_gaussian_objective += r.ga_gaussian;
      if (r.uniform > 1e-9)
        point.mean_gain += (r.ga - r.uniform) / r.uniform;
    }
    const auto denom = static_cast<double>(tasksets);
    point.uniform_objective /= denom;
    point.ga_objective /= denom;
    point.ga_gaussian_objective /= denom;
    point.mean_gain /= denom;
    points.push_back(point);
  }
  return points;
}

common::Table render_ga_vs_uniform(
    const std::vector<GaVsUniformPoint>& points) {
  common::Table table({"U_HC^HI", "best uniform-n obj.", "GA per-task obj.",
                       "GA (gaussian mut.)", "mean GA gain"});
  table.set_title("Ablation A1: GA per-task multipliers vs. best uniform n");
  for (const GaVsUniformPoint& p : points) {
    table.add_row({common::format_double(p.u_hc_hi, 3),
                   common::format_double(p.uniform_objective, 4),
                   common::format_double(p.ga_objective, 4),
                   common::format_double(p.ga_gaussian_objective, 4),
                   common::format_percent(p.mean_gain)});
  }
  return table;
}

std::vector<SimValidationPoint> run_sim_validation(
    const std::vector<double>& u_values, std::size_t tasksets,
    common::Millis horizon, std::uint64_t seed,
    const core::OptimizerConfig& optimizer, const common::Executor& exec) {
  std::vector<SimValidationPoint> points;
  const taskgen::GeneratorConfig config;
  const auto [u_begin, u_end] = exec.range(u_values.size());
  points.reserve(u_end - u_begin);
  for (std::size_t p = u_begin; p < u_end; ++p) {
    const double u = u_values[p];
    const std::uint64_t base =
        seed + 7 + static_cast<std::uint64_t>(u * 1000.0);
    SimValidationPoint point;
    point.u_hc_hi = u;
    // Replication i optimizes and simulates on its own index_seed stream;
    // infeasible/unschedulable sets contribute nothing.
    struct Replication {
      bool valid = false;
      double analytic_p_ms = 0.0;
      double overrun_rate = 0.0;
      double drop_rate_dropall = 0.0;
      double drop_rate_degrade = 0.0;
      double hc_miss_dropall = 0.0;
      double hc_miss_degrade = 0.0;
    };
    const std::vector<Replication> replications =
        common::parallel_map(tasksets, [&](std::size_t i) {
          Replication r;
          common::Rng set_rng(common::index_seed(base, i));
          mc::TaskSet tasks = taskgen::generate_hc_only(config, u, set_rng);
          core::OptimizerConfig opt = optimizer;
          opt.ga.seed = set_rng();
          const core::OptimizationResult best =
              core::optimize_multipliers_ga(tasks, opt);
          if (!best.breakdown.feasible) return r;
          (void)core::apply_chebyshev_assignment(tasks, best.n);
          // Fill with LC tasks slightly under the admissible maximum so
          // the EDF-VD test passes with margin.
          add_lc_fill(tasks, 0.9 * best.breakdown.max_u_lc, set_rng);
          const sched::EdfVdResult vd = sched::edf_vd_test(tasks);
          if (!vd.schedulable) return r;
          r.valid = true;
          r.analytic_p_ms = best.breakdown.p_ms;

          sim::SimConfig sim_config;
          sim_config.horizon = horizon;
          sim_config.x = vd.x;
          sim_config.seed = set_rng();

          sim_config.lc_policy = sim::LcPolicy::kDropAll;
          const sim::SimResult drop = sim::simulate(tasks, sim_config);
          sim_config.lc_policy = sim::LcPolicy::kDegradeHalf;
          const sim::SimResult degrade = sim::simulate(tasks, sim_config);

          r.overrun_rate = drop.metrics.hc_overrun_rate();
          r.drop_rate_dropall = drop.metrics.lc_drop_rate();
          r.drop_rate_degrade = degrade.metrics.lc_drop_rate();
          r.hc_miss_dropall =
              static_cast<double>(drop.metrics.hc_deadline_misses);
          r.hc_miss_degrade =
              static_cast<double>(degrade.metrics.hc_deadline_misses);
          return r;
        });
    std::size_t valid_sets = 0;
    for (const Replication& r : replications) {
      if (!r.valid) continue;
      ++valid_sets;
      point.analytic_p_ms += r.analytic_p_ms;
      point.sim_overrun_rate += r.overrun_rate;
      point.sim_drop_rate_dropall += r.drop_rate_dropall;
      point.sim_drop_rate_degrade += r.drop_rate_degrade;
      point.sim_hc_miss_dropall += r.hc_miss_dropall;
      point.sim_hc_miss_degrade += r.hc_miss_degrade;
    }
    if (valid_sets > 0) {
      const auto denom = static_cast<double>(valid_sets);
      point.analytic_p_ms /= denom;
      point.sim_overrun_rate /= denom;
      point.sim_drop_rate_dropall /= denom;
      point.sim_drop_rate_degrade /= denom;
      point.sim_hc_miss_dropall /= denom;
      point.sim_hc_miss_degrade /= denom;
    }
    points.push_back(point);
  }
  return points;
}

common::Table render_sim_validation(
    const std::vector<SimValidationPoint>& points) {
  common::Table table({"U_HC^HI", "Eq.10 bound", "sim overrun rate",
                       "LC drop (drop-all)", "LC drop (degrade)",
                       "HC misses (drop-all)", "HC misses (degrade)"});
  table.set_title(
      "Ablations A2+A3: runtime policy comparison and analytic-vs-simulated "
      "validation");
  for (const SimValidationPoint& p : points) {
    table.add_row({common::format_double(p.u_hc_hi, 3),
                   common::format_percent(p.analytic_p_ms),
                   common::format_percent(p.sim_overrun_rate),
                   common::format_percent(p.sim_drop_rate_dropall),
                   common::format_percent(p.sim_drop_rate_degrade),
                   common::format_double(p.sim_hc_miss_dropall, 3),
                   common::format_double(p.sim_hc_miss_degrade, 3)});
  }
  return table;
}

}  // namespace mcs::exp
