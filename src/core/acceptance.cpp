#include "core/acceptance.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"
#include "sched/edf_vd.hpp"
#include "sched/policies.hpp"

namespace mcs::core {

namespace {

constexpr double kLiuRho = 0.5;  // Liu et al. [2]: 50% degraded LC budgets

/// Assigns C^LO to every HC task: lambda policy or Chebyshev n = 0
/// (C^LO = ACET, the schedulability-optimal corner of the scheme).
mc::TaskSet assign(const mc::TaskSet& tasks, bool chebyshev,
                   common::Rng& rng) {
  mc::TaskSet out = tasks;
  const sched::LambdaRangePolicy lambda_policy(0.25, 1.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    mc::McTask& task = out[i];
    if (task.criticality != mc::Criticality::kHigh) continue;
    if (chebyshev) {
      task.wcet_lo = chebyshev_wcet_opt(task.stats->acet, task.stats->sigma,
                                        0.0, task.wcet_hi);
    } else {
      sched::HcTaskProfile profile{task.stats->acet, task.stats->sigma,
                                   task.wcet_hi, task.period};
      task.wcet_lo =
          std::clamp(lambda_policy.wcet_opt(profile, rng), 1e-9, task.wcet_hi);
    }
  }
  return out;
}

}  // namespace

std::string to_string(Approach approach) {
  switch (approach) {
    case Approach::kBaruahLambda: return "Baruah[1] lambda[1/4,1]";
    case Approach::kBaruahChebyshev: return "Baruah[1] + proposed";
    case Approach::kLiuLambda: return "Liu[2] lambda[1/4,1]";
    case Approach::kLiuChebyshev: return "Liu[2] + proposed";
  }
  return "?";
}

bool accepts(Approach approach, const mc::TaskSet& tasks, common::Rng& rng) {
  const bool chebyshev = approach == Approach::kBaruahChebyshev ||
                         approach == Approach::kLiuChebyshev;
  const bool degraded = approach == Approach::kLiuLambda ||
                        approach == Approach::kLiuChebyshev;
  const mc::TaskSet assigned = assign(tasks, chebyshev, rng);
  const sched::McUtilization u = sched::McUtilization::of(assigned);
  return degraded ? sched::edf_vd_degraded_test(u, kLiuRho).schedulable
                  : sched::edf_vd_test(u).schedulable;
}

bool policy_accepts(const sched::WcetOptPolicy& policy,
                    const mc::TaskSet& tasks, common::Rng& rng,
                    AdmissionBackend backend) {
  mc::TaskSet assigned = tasks;
  for (std::size_t i = 0; i < assigned.size(); ++i) {
    mc::McTask& task = assigned[i];
    if (task.criticality != mc::Criticality::kHigh) continue;
    sched::HcTaskProfile profile{task.stats->acet, task.stats->sigma,
                                 task.wcet_hi, task.period};
    profile.distribution = task.stats->distribution.get();
    task.wcet_lo =
        std::clamp(policy.wcet_opt(profile, rng), 1e-9, task.wcet_hi);
  }
  if (backend == AdmissionBackend::kDemand)
    return sched::edf_vd_demand_test(assigned).schedulable;
  const sched::McUtilization u = sched::McUtilization::of(assigned);
  return sched::edf_vd_test(u).schedulable;
}

double policy_acceptance_ratio(const sched::WcetOptPolicy& policy,
                               AdmissionBackend backend, double u_bound,
                               std::size_t num_tasksets, std::uint64_t seed,
                               const taskgen::GeneratorConfig& config) {
  const std::vector<std::size_t> verdicts =
      common::parallel_map(num_tasksets, [&](std::size_t i) -> std::size_t {
        common::Rng set_rng(common::index_seed(seed, i));
        const mc::TaskSet tasks =
            taskgen::generate_mixed(config, u_bound, set_rng);
        return policy_accepts(policy, tasks, set_rng, backend) ? 1 : 0;
      });
  std::size_t accepted = 0;
  for (const std::size_t verdict : verdicts) accepted += verdict;
  return static_cast<double>(accepted) / static_cast<double>(num_tasksets);
}

double acceptance_ratio(Approach approach, double u_bound,
                        std::size_t num_tasksets, std::uint64_t seed,
                        const taskgen::GeneratorConfig& config) {
  // Set i is generated from its own index_seed(seed, i) stream, and the
  // lambda draws continue on it, so every approach called with the same
  // seed judges the same sets, and the ratio is bit-identical at every
  // --jobs value.
  const std::vector<std::size_t> verdicts =
      common::parallel_map(num_tasksets, [&](std::size_t i) -> std::size_t {
        common::Rng set_rng(common::index_seed(seed, i));
        const mc::TaskSet tasks =
            taskgen::generate_mixed(config, u_bound, set_rng);
        return accepts(approach, tasks, set_rng) ? 1 : 0;
      });
  std::size_t accepted = 0;
  for (const std::size_t verdict : verdicts) accepted += verdict;
  return static_cast<double>(accepted) / static_cast<double>(num_tasksets);
}

}  // namespace mcs::core
