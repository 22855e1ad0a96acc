// Concentration-bound policy family shoot-out (beyond the paper).
//
// Two coordinated views of the new C^LO policy family
// (sched/policies.hpp: vp_n_sigma, gauss_n_sigma, cantelli_n_sigma,
// median_k_mad, iqr_whisker):
//
//  1. Kernel exceedance: every policy assigns C^LO from the *training*
//     half of each kernel's measurement campaign (the nine-kernel zoo of
//     apps::all_kernels) and is scored on the held-out half — achieved
//     exceedance vs. the analytic bound value at the implied multiplier
//     n = (C^LO - ACET) / sigma, plus the unimodality verdict that
//     decides whether the VP/Gauss premise held.
//
//  2. Acceptance ratio: every policy's acceptance ratio over random task
//     sets across a utilization grid, under either admission backend
//     (Eq. 8 utilization, or the demand-based deadline-tightening search
//     of sched/demand_vd.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/executor.hpp"
#include "common/table.hpp"
#include "core/acceptance.hpp"
#include "sched/policies.hpp"

namespace mcs::exp {

/// The default shoot-out roster: the three concentration-bound policies
/// at options.target_p plus the two dispersion-parameter budgets.
[[nodiscard]] std::vector<sched::WcetOptPolicyPtr> shootout_policies(
    const sched::PolicyFactoryOptions& options = {});

/// Builds the --policy roster of a sweep over synthetic task sets
/// (sched::make_policy_list). Those sets carry a generating distribution
/// but no measured samples, so a policy that needs measured samples
/// (quantile, evt) is refused: throws std::invalid_argument naming it.
[[nodiscard]] std::vector<sched::WcetOptPolicyPtr> make_synthetic_policy_list(
    std::string_view specs, const sched::PolicyFactoryOptions& options = {});

/// One (kernel, policy) score of the exceedance experiment.
struct ShootoutKernelRow {
  std::string application;
  std::string policy;
  double wcet_opt = 0.0;          ///< chosen C^LO (cycles)
  double utilization_cost = 0.0;  ///< C^LO / ACET (lower = tighter)
  double implied_n = 0.0;         ///< (C^LO - ACET) / sigma
  /// Analytic exceedance bound at implied_n under the policy's effective
  /// bound (its own kind when the unimodality premise held, Cantelli
  /// otherwise; plain Cantelli for the non-bound policies).
  double bound_p = 0.0;
  /// The policy's exceedance target (< 0 when it has none).
  double target_p = -1.0;
  double train_exceedance = 0.0;    ///< overrun rate on the training half
  double holdout_exceedance = 0.0;  ///< overrun rate on the held-out half
  bool unimodal = false;  ///< unimodality_check verdict on the train half
};

/// Runs the exceedance experiment: `samples` runs per kernel, split 50/50
/// train/holdout. Kernels own counter-based streams (index_seed), so they
/// evaluate in parallel — and a sharded `exec` evaluates only its slice
/// of the kernel list — with bit-identical rows.
[[nodiscard]] std::vector<ShootoutKernelRow> run_shootout_kernels(
    const std::vector<sched::WcetOptPolicyPtr>& policies,
    std::size_t samples, std::uint64_t seed,
    const common::Executor& exec = {});

/// Renders one row per (kernel, policy): C^LO, C^LO/ACET, implied n,
/// bound vs. achieved exceedance, target, unimodality verdict.
[[nodiscard]] common::Table render_shootout_kernels(
    const std::vector<ShootoutKernelRow>& rows);

/// Acceptance ratios of the roster at one utilization bound.
struct ShootoutAcceptancePoint {
  double u_bound = 0.0;
  std::vector<double> ratios;  ///< one per roster policy, roster order
};

/// The acceptance experiment: roster × utilization grid under `backend`.
struct ShootoutAcceptance {
  std::vector<std::string> policies;  ///< roster display names
  core::AdmissionBackend backend = core::AdmissionBackend::kUtilization;
  std::vector<ShootoutAcceptancePoint> points;
};

/// Runs the acceptance experiment over `u_values` with `tasksets` random
/// task sets per point. Per-point seeds derive from the u value alone, so
/// a sharded `exec` evaluates only its slice of `u_values` and shard
/// outputs concatenate to the unsharded result byte-for-byte.
[[nodiscard]] ShootoutAcceptance run_shootout_acceptance(
    const std::vector<sched::WcetOptPolicyPtr>& policies,
    core::AdmissionBackend backend, const std::vector<double>& u_values,
    std::size_t tasksets, std::uint64_t seed,
    const common::Executor& exec = {});

/// Renders one column per roster policy.
[[nodiscard]] common::Table render_shootout_acceptance(
    const ShootoutAcceptance& result);

}  // namespace mcs::exp
