#include "exp/shootout.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "apps/measurement.hpp"
#include "apps/registry.hpp"
#include "common/thread_pool.hpp"
#include "stats/concentration.hpp"
#include "stats/empirical.hpp"

namespace mcs::exp {

namespace {

double overrun_rate(std::span<const double> samples, double threshold) {
  std::size_t over = 0;
  for (const double s : samples)
    if (s > threshold) ++over;
  return samples.empty()
             ? 0.0
             : static_cast<double>(over) / static_cast<double>(samples.size());
}

}  // namespace

std::vector<sched::WcetOptPolicyPtr> shootout_policies(
    const sched::PolicyFactoryOptions& options) {
  return {
      sched::make_policy("vp_n_sigma", options),
      sched::make_policy("gauss_n_sigma", options),
      sched::make_policy("cantelli_n_sigma", options),
      sched::make_policy("median_k_mad", options),
      sched::make_policy("iqr_whisker", options),
  };
}

std::vector<sched::WcetOptPolicyPtr> make_synthetic_policy_list(
    std::string_view specs, const sched::PolicyFactoryOptions& options) {
  std::vector<sched::WcetOptPolicyPtr> policies =
      sched::make_policy_list(specs, options);
  for (const sched::WcetOptPolicyPtr& policy : policies)
    if (dynamic_cast<const sched::EmpiricalQuantilePolicy*>(policy.get()) ||
        dynamic_cast<const sched::EvtPwcetPolicy*>(policy.get()))
      throw std::invalid_argument(
          "policy " + policy->name() +
          " needs measured samples; the synthetic task sets carry no samples");
  return policies;
}

std::vector<ShootoutKernelRow> run_shootout_kernels(
    const std::vector<sched::WcetOptPolicyPtr>& policies,
    std::size_t samples, std::uint64_t seed, const common::Executor& exec) {
  const auto kernels = apps::all_kernels();

  // Same layout as ablation A4: each kernel owns counter-based streams
  // (measurement seed + 31*k, policy stream index_seed(seed, k) — unused
  // by the deterministic roster but kept for interface parity), so
  // kernels evaluate in parallel and shard with bit-identical rows.
  const auto [begin, end] = exec.range(kernels.size());
  const std::vector<std::vector<ShootoutKernelRow>> per_kernel =
      common::parallel_map_chunked(
          end - begin, 1, [&, base = begin](std::size_t j) {
            const std::size_t k = base + j;
            common::Rng policy_rng(common::index_seed(seed, k));
            const apps::ExecutionProfile profile =
                apps::measure_kernel(*kernels[k], samples, seed + 31 * k);
            const std::size_t half = profile.samples.size() / 2;
            const std::span<const double> train(profile.samples.data(), half);
            const std::span<const double> holdout(
                profile.samples.data() + half, profile.samples.size() - half);
            const std::vector<double> train_vec(train.begin(), train.end());
            const stats::EmpiricalDistribution train_emp(train_vec);
            const bool unimodal = stats::unimodality_check(train).unimodal;

            sched::HcTaskProfile hc;
            hc.acet = train_emp.mean();
            hc.sigma = train_emp.stddev();
            hc.wcet_pes = static_cast<double>(profile.wcet_pes);
            hc.period = 1.0;  // irrelevant here
            hc.samples = &train_vec;

            std::vector<ShootoutKernelRow> rows;
            rows.reserve(policies.size());
            for (const sched::WcetOptPolicyPtr& policy : policies) {
              ShootoutKernelRow row;
              row.application = profile.name;
              row.policy = policy->name();
              row.unimodal = unimodal;
              row.wcet_opt = policy->wcet_opt(hc, policy_rng);
              row.utilization_cost = row.wcet_opt / hc.acet;
              row.implied_n =
                  hc.sigma > 0.0
                      ? std::max(0.0, (row.wcet_opt - hc.acet) / hc.sigma)
                      : 0.0;
              // Effective bound: the policy's own kind when the VP/Gauss
              // premise was certified, Cantelli otherwise (also the
              // distribution-free bound for the dispersion budgets).
              stats::BoundKind kind = stats::BoundKind::kCantelli;
              double target = -1.0;
              if (const auto* cb =
                      dynamic_cast<const sched::ConcentrationBoundPolicy*>(
                          policy.get())) {
                if (unimodal) kind = cb->kind();
                target = cb->target_p();
              }
              row.bound_p =
                  stats::concentration_exceedance(kind, row.implied_n);
              row.target_p = target;
              row.train_exceedance = overrun_rate(train, row.wcet_opt);
              row.holdout_exceedance = overrun_rate(holdout, row.wcet_opt);
              rows.push_back(std::move(row));
            }
            return rows;
          });

  std::vector<ShootoutKernelRow> rows;
  rows.reserve(per_kernel.size() * policies.size());
  for (const std::vector<ShootoutKernelRow>& kernel_rows : per_kernel)
    rows.insert(rows.end(), kernel_rows.begin(), kernel_rows.end());
  return rows;
}

common::Table render_shootout_kernels(
    const std::vector<ShootoutKernelRow>& rows) {
  common::Table table({"Application", "policy", "C^LO (cyc)", "C^LO / ACET",
                       "implied n", "bound p", "target p", "exceed (train)",
                       "exceed (holdout)", "unimodal"});
  table.set_title(
      "Shoot-out: concentration-bound / dispersion-budget policies on the "
      "kernel zoo (held-out exceedance vs. analytic bound)");
  for (const ShootoutKernelRow& row : rows) {
    table.add_row({row.application, row.policy,
                   common::format_double(row.wcet_opt, 4),
                   common::format_double(row.utilization_cost, 3),
                   common::format_double(row.implied_n, 3),
                   common::format_percent(row.bound_p),
                   row.target_p >= 0.0 ? common::format_percent(row.target_p)
                                       : "-",
                   common::format_percent(row.train_exceedance),
                   common::format_percent(row.holdout_exceedance),
                   row.unimodal ? "yes" : "no"});
  }
  return table;
}

ShootoutAcceptance run_shootout_acceptance(
    const std::vector<sched::WcetOptPolicyPtr>& policies,
    core::AdmissionBackend backend, const std::vector<double>& u_values,
    std::size_t tasksets, std::uint64_t seed, const common::Executor& exec) {
  ShootoutAcceptance result;
  result.backend = backend;
  result.policies.reserve(policies.size());
  for (const sched::WcetOptPolicyPtr& policy : policies)
    result.policies.push_back(policy->name());

  // Same outer-axis fan-out as fig6: per-point seeds derive from the u
  // value alone, so points are independent and shard cleanly.
  result.points = exec.map(u_values.size(), [&](std::size_t p) {
    const double u = u_values[p];
    const std::uint64_t point_seed =
        seed + static_cast<std::uint64_t>(u * 1000.0);
    ShootoutAcceptancePoint point;
    point.u_bound = u;
    point.ratios.reserve(policies.size());
    for (const sched::WcetOptPolicyPtr& policy : policies)
      point.ratios.push_back(core::policy_acceptance_ratio(
          *policy, backend, u, tasksets, point_seed));
    return point;
  });
  return result;
}

common::Table render_shootout_acceptance(const ShootoutAcceptance& result) {
  std::vector<std::string> headers = {"U_bound"};
  headers.insert(headers.end(), result.policies.begin(),
                 result.policies.end());
  common::Table table(std::move(headers));
  table.set_title("Shoot-out: acceptance ratio by C^LO policy (backend: " +
                  core::to_string(result.backend) + ")");
  for (const ShootoutAcceptancePoint& point : result.points) {
    std::vector<std::string> cells = {common::format_double(point.u_bound, 3)};
    for (const double ratio : point.ratios)
      cells.push_back(common::format_percent(ratio));
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace mcs::exp
