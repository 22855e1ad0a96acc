// Acceptance-ratio experiments (Fig. 6, Section V-D).
//
// Compares the fraction of schedulable synthetic task sets at each
// utilization bound for:
//   * Baruah et al. [1] (EDF-VD, drop-all LC) with lambda-fraction C^LO
//   * Liu et al.    [2] (EDF-VD, LC degraded to 50% in HI) with lambda C^LO
// each with and without the proposed Chebyshev scheme. Under the scheme,
// a task set is accepted when SOME feasible multiplier vector schedules it;
// since U_HC^LO is monotone in every n_i, acceptance is decided at the
// n = 0 corner (C^LO = ACET) and the scheme then picks the Eq. 13 optimum
// within the schedulable region.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "mc/taskset.hpp"
#include "sched/policies.hpp"
#include "taskgen/generator.hpp"

namespace mcs::core {

/// The four approaches of Fig. 6.
enum class Approach {
  kBaruahLambda,     ///< [1] with lambda in [1/4, 1]
  kBaruahChebyshev,  ///< [1] + proposed scheme
  kLiuLambda,        ///< [2] with lambda in [1/4, 1]
  kLiuChebyshev,     ///< [2] + proposed scheme
};

/// Display name of an approach.
[[nodiscard]] std::string to_string(Approach approach);

/// Decides schedulability of one generated task set under `approach`.
/// `rng` drives the lambda draws of the baseline policies.
[[nodiscard]] bool accepts(Approach approach, const mc::TaskSet& tasks,
                           common::Rng& rng);

/// Fraction of `num_tasksets` random task sets at bound `u_bound` accepted
/// by `approach` (Fig. 6 one point).
[[nodiscard]] double acceptance_ratio(Approach approach, double u_bound,
                                      std::size_t num_tasksets,
                                      std::uint64_t seed,
                                      const taskgen::GeneratorConfig& config =
                                          {});

/// Policy-family variant (the shoot-out axis): assigns C^LO to every HC
/// task with `policy` (profiles carry the generating distribution, so the
/// sample-needing policies synthesize their deterministic surrogate) and
/// decides schedulability with the selected backend — Eq. 8 under
/// kUtilization, or edf_vd_demand_test (Eq. 8 shortcut + deadline-
/// tightening grid search) under kDemand.
[[nodiscard]] bool policy_accepts(
    const sched::WcetOptPolicy& policy, const mc::TaskSet& tasks,
    common::Rng& rng,
    AdmissionBackend backend = AdmissionBackend::kUtilization);

/// Fraction of `num_tasksets` random task sets at bound `u_bound`
/// accepted under `policy` + `backend`. Same Monte Carlo as
/// acceptance_ratio: per-set index_seed streams keep the ratio
/// bit-identical at every --jobs value.
[[nodiscard]] double policy_acceptance_ratio(
    const sched::WcetOptPolicy& policy, AdmissionBackend backend,
    double u_bound, std::size_t num_tasksets, std::uint64_t seed,
    const taskgen::GeneratorConfig& config = {});

}  // namespace mcs::core
