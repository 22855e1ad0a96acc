#include "core/comparison.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "taskgen/generator.hpp"

namespace mcs::core {

ObjectiveBreakdown apply_and_evaluate_policy(const mc::TaskSet& tasks,
                                             const sched::WcetOptPolicy& policy,
                                             common::Rng& rng) {
  mc::TaskSet assigned = tasks;  // work on a copy
  for (std::size_t i = 0; i < assigned.size(); ++i) {
    mc::McTask& task = assigned[i];
    if (task.criticality != mc::Criticality::kHigh) continue;
    if (!task.stats.has_value())
      throw std::invalid_argument(
          "apply_and_evaluate_policy: HC task without execution stats");
    sched::HcTaskProfile profile;
    profile.acet = task.stats->acet;
    profile.sigma = task.stats->sigma;
    profile.wcet_pes = task.wcet_hi;
    profile.period = task.period;
    profile.distribution = task.stats->distribution.get();
    const double wcet_opt = policy.wcet_opt(profile, rng);
    task.wcet_lo = std::clamp(wcet_opt, 1e-9, task.wcet_hi);
  }
  return evaluate_current_assignment(assigned);
}

std::vector<sched::WcetOptPolicyPtr> baseline_policies() {
  return {
      std::make_shared<sched::LambdaRangePolicy>(0.25, 1.0),
      std::make_shared<sched::LambdaRangePolicy>(0.125, 1.0),
      std::make_shared<sched::LambdaRangePolicy>(1.0 / 2.5, 1.0 / 1.5),
      std::make_shared<sched::LambdaSetPolicy>(
          std::vector<double>{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0}),
      std::make_shared<sched::AcetPolicy>(),
  };
}

std::vector<PolicyScore> compare_policies(
    double u_hc_hi, std::size_t num_tasksets, std::uint64_t seed,
    const OptimizerConfig& optimizer,
    const std::vector<sched::WcetOptPolicyPtr>& extra_policies,
    const std::vector<std::vector<double>>* warm_start,
    std::vector<std::vector<double>>* winners) {
  if (winners != nullptr) winners->assign(num_tasksets, {});
  const auto baselines = baseline_policies();
  std::vector<PolicyScore> scores(baselines.size() + 1 +
                                  extra_policies.size());
  for (std::size_t p = 0; p < baselines.size(); ++p)
    scores[p].policy = baselines[p]->name();
  scores[baselines.size()].policy = "proposed(GA)";
  for (std::size_t p = 0; p < extra_policies.size(); ++p)
    scores[baselines.size() + 1 + p].policy = extra_policies[p]->name();

  // Monte Carlo replications: set i is generated from its own
  // index_seed(seed, i) stream, and the baseline draws and the GA seed
  // continue on it; the per-policy sums below are reduced in index order,
  // so the scores are bit-identical at any --jobs value.
  const taskgen::GeneratorConfig gen_config;
  const std::vector<std::vector<ObjectiveBreakdown>> per_set =
      common::parallel_map(num_tasksets, [&](std::size_t set) {
        common::Rng set_rng(common::index_seed(seed, set));
        const mc::TaskSet tasks =
            taskgen::generate_hc_only(gen_config, u_hc_hi, set_rng);
        std::vector<ObjectiveBreakdown> breakdowns;
        breakdowns.reserve(baselines.size() + 1 + extra_policies.size());
        for (const sched::WcetOptPolicyPtr& baseline : baselines)
          breakdowns.push_back(
              apply_and_evaluate_policy(tasks, *baseline, set_rng));
        OptimizerConfig opt = optimizer;
        opt.ga.seed = set_rng();
        // Warm start rides per replication index: the genome found on
        // the neighbouring cell's set #k seeds this cell's set #k.
        if (warm_start != nullptr && set < warm_start->size() &&
            !(*warm_start)[set].empty())
          opt.warm_start.push_back((*warm_start)[set]);
        const OptimizationResult ga = optimize_multipliers_ga(tasks, opt);
        if (winners != nullptr) (*winners)[set] = ga.n;
        breakdowns.push_back(ga.breakdown);
        // Extra (shoot-out) policies ride after the legacy roster: they
        // draw nothing from set_rng (deterministic from the task
        // profiles), so the rows above stay bit-identical to the
        // extras-free run.
        for (const sched::WcetOptPolicyPtr& extra : extra_policies)
          breakdowns.push_back(
              apply_and_evaluate_policy(tasks, *extra, set_rng));
        return breakdowns;
      });

  for (const std::vector<ObjectiveBreakdown>& breakdowns : per_set) {
    for (std::size_t p = 0; p < breakdowns.size(); ++p) {
      const ObjectiveBreakdown& b = breakdowns[p];
      scores[p].p_ms += b.p_ms;
      scores[p].max_u_lc += b.max_u_lc;
      scores[p].objective += b.objective;
      scores[p].feasible_fraction += b.feasible ? 1.0 : 0.0;
    }
  }

  const auto denom = static_cast<double>(num_tasksets);
  for (PolicyScore& s : scores) {
    s.p_ms /= denom;
    s.max_u_lc /= denom;
    s.objective /= denom;
    s.feasible_fraction /= denom;
  }
  return scores;
}

}  // namespace mcs::core
