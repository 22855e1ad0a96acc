// Optimistic-WCET (C^LO) assignment policies.
//
// The experiments of Section V-C compare the paper's Chebyshev scheme
// against the state-of-the-art practice of setting C^LO as a fraction
// lambda of the pessimistic WCET:
//   * Baruah et al. [1]: lambda drawn from [1/4, 1] or [1/8, 1]
//   * Liu et al.    [9]: lambda in [1/2.5, 1/1.5]
//   * Guo et al.    [4]: lambda in {1/16, 1/8, 1/4, 1/2, 1}
// plus the naive C^LO = ACET policy from the motivational example. Every
// policy here maps an HC task's execution profile to a C^LO value; the
// Chebyshev policies derive it from ACET + n*sigma (Eq. 6) instead of
// from WCET^pes.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "stats/concentration.hpp"
#include "stats/distribution.hpp"
#include "stats/empirical.hpp"
#include "stats/evt.hpp"

namespace mcs::sched {

/// What a policy gets to look at for one HC task (times in ms).
struct HcTaskProfile {
  double acet = 0.0;      ///< mean execution time (Eq. 3)
  double sigma = 0.0;     ///< execution-time stddev (Eq. 4)
  double wcet_pes = 0.0;  ///< static pessimistic WCET (C^HI)
  double period = 0.0;    ///< P_i
  /// Raw measurement samples, when available (required by the
  /// measurement-based policies below; may be null for analytic policies).
  const std::vector<double>* samples = nullptr;
  /// Generating distribution, when known (synthetic task sets carry one);
  /// sample-needing policies synthesize a deterministic surrogate sample
  /// set from it when `samples` is null or empty. May be null.
  const stats::Distribution* distribution = nullptr;
};

/// Strategy interface for choosing C^LO of an HC task. A policy holds
/// only its constructor parameters and keeps nothing between calls:
/// `wcet_opt` reads the profile afresh each time (and draws from `rng`
/// for the lambda baselines), so one instance can be shared by the
/// parallel sweep workers.
class WcetOptPolicy {
 public:
  virtual ~WcetOptPolicy() = default;

  /// Returns C^LO in (0, wcet_pes]. `rng` serves policies that draw
  /// per-task parameters (the lambda-range baselines).
  [[nodiscard]] virtual double wcet_opt(const HcTaskProfile& profile,
                                        common::Rng& rng) const = 0;

  /// Display name used in result tables.
  [[nodiscard]] virtual std::string name() const = 0;
};

using WcetOptPolicyPtr = std::shared_ptr<const WcetOptPolicy>;

/// C^LO = lambda * WCET^pes with lambda drawn uniformly from
/// [lambda_min, lambda_max] per task — the [1], [9] baseline family.
class LambdaRangePolicy final : public WcetOptPolicy {
 public:
  /// Requires 0 < lambda_min <= lambda_max <= 1.
  LambdaRangePolicy(double lambda_min, double lambda_max);
  [[nodiscard]] double wcet_opt(const HcTaskProfile& profile,
                                common::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double lambda_min_;
  double lambda_max_;
};

/// C^LO = lambda * WCET^pes with lambda drawn uniformly from a discrete
/// set — the [4] baseline.
class LambdaSetPolicy final : public WcetOptPolicy {
 public:
  /// Requires a non-empty set of values in (0, 1].
  explicit LambdaSetPolicy(std::vector<double> lambdas);
  [[nodiscard]] double wcet_opt(const HcTaskProfile& profile,
                                common::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::vector<double> lambdas_;
};

/// C^LO = ACET — the motivational example's naive policy (overruns on
/// roughly half of all jobs).
class AcetPolicy final : public WcetOptPolicy {
 public:
  [[nodiscard]] double wcet_opt(const HcTaskProfile& profile,
                                common::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "ACET"; }
};

/// The paper's scheme with one uniform n for all tasks:
/// C^LO = min(ACET + n*sigma, WCET^pes) (Eq. 6 + Eq. 9 clamp).
class ChebyshevUniformPolicy final : public WcetOptPolicy {
 public:
  /// Requires n >= 0.
  explicit ChebyshevUniformPolicy(double n);
  [[nodiscard]] double wcet_opt(const HcTaskProfile& profile,
                                common::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double n() const { return n_; }

 private:
  double n_;
};

/// Measurement-based baseline: C^LO = the empirical q-quantile of the
/// observed execution times. Tighter than Chebyshev when the measurements
/// are representative, but offers no distribution-free guarantee — the
/// trade-off the paper's Section II discusses for pWCET approaches.
/// Requires profile.samples != nullptr.
class EmpiricalQuantilePolicy final : public WcetOptPolicy {
 public:
  /// Requires q in (0, 1].
  explicit EmpiricalQuantilePolicy(double q);
  [[nodiscard]] double wcet_opt(const HcTaskProfile& profile,
                                common::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double q_;
};

/// EVT baseline (the pWCET family [17], [18]): fits a Gumbel law to
/// block maxima of the samples and sets C^LO at the level whose per-block
/// exceedance probability is `exceedance`. Model-dependent: can under- or
/// over-shoot when the tail is not in the Gumbel domain — the reliability
/// concern of [19]-[21]. Requires profile.samples != nullptr with at
/// least 2 * block_size samples.
class EvtPwcetPolicy final : public WcetOptPolicy {
 public:
  /// Requires exceedance in (0, 1) and block_size >= 1.
  EvtPwcetPolicy(double exceedance, std::size_t block_size = 50);
  [[nodiscard]] double wcet_opt(const HcTaskProfile& profile,
                                common::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double exceedance_;
  std::size_t block_size_;
};

/// Deterministic surrogate sample set for a profile that carries a
/// generating distribution but no measurements. The stream seed hashes
/// the profile's own parameters (moment/WCET/period bit patterns plus the
/// distribution name), never the caller's RNG state, so the synthesis is
/// bit-identical across --jobs counts, roster positions, and repeated
/// calls — and existing policies' draw streams are untouched. Requires
/// profile.distribution != nullptr and count >= 1.
[[nodiscard]] std::vector<double> synthesize_profile_samples(
    const HcTaskProfile& profile, std::size_t count = 1024);

/// C^LO = min(ACET + n*sigma, WCET^pes) with n derived from a
/// concentration bound at a target exceedance probability (Eq. 6 with the
/// generalized inequality family of stats/concentration.hpp). The
/// unimodal bounds (VP, Gauss) only apply when their premise is
/// certified: the policy runs stats::unimodality_check over the
/// profile's samples (measured, or synthesized from the generating
/// distribution) and falls back to the distribution-free Cantelli
/// multiplier for the same target when the check rejects or no sample
/// source exists — in that case the result is bit-identical to
/// ChebyshevUniformPolicy at the Cantelli n.
class ConcentrationBoundPolicy final : public WcetOptPolicy {
 public:
  /// Requires target_p in (0, 1).
  ConcentrationBoundPolicy(stats::BoundKind kind, double target_p);
  [[nodiscard]] double wcet_opt(const HcTaskProfile& profile,
                                common::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] stats::BoundKind kind() const { return kind_; }
  [[nodiscard]] double target_p() const { return target_p_; }
  /// The multiplier used when the premise holds / the Cantelli fallback.
  [[nodiscard]] double n_bound() const { return n_bound_; }
  [[nodiscard]] double n_fallback() const { return n_fallback_; }

 private:
  stats::BoundKind kind_;
  double target_p_;
  double n_bound_;     ///< inverse of the chosen bound at target_p
  double n_fallback_;  ///< Cantelli inverse at target_p
};

/// Dispersion-parameter budget (Khelassi & Abdeddaim): C^LO = median +
/// k * MAD (median absolute deviation), robust to the skew that inflates
/// mean + n*sigma budgets. Requires samples or a generating distribution
/// (synthesized surrogate). Clamped into (0, wcet_pes].
class MedianMadPolicy final : public WcetOptPolicy {
 public:
  /// Requires k >= 0.
  explicit MedianMadPolicy(double k);
  [[nodiscard]] double wcet_opt(const HcTaskProfile& profile,
                                common::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double k_;
};

/// Dispersion-parameter budget: C^LO = Q3 + k * IQR (the Tukey whisker).
/// Requires samples or a generating distribution. Clamped into
/// (0, wcet_pes].
class IqrWhiskerPolicy final : public WcetOptPolicy {
 public:
  /// Requires k >= 0.
  explicit IqrWhiskerPolicy(double k);
  [[nodiscard]] double wcet_opt(const HcTaskProfile& profile,
                                common::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double k_;
};

/// Tunables for make_policy.
struct PolicyFactoryOptions {
  double target_p = 0.1;    ///< exceedance target for the bound policies
  double mad_k = 3.0;       ///< median_k_mad multiplier
  double whisker_k = 1.5;   ///< iqr_whisker multiplier
  double chebyshev_n = 3.0; ///< chebyshev policy multiplier
  double quantile_q = 0.9;  ///< quantile policy level
  double evt_p = 0.01;      ///< evt per-block exceedance
};

/// Builds a policy from a CLI spec. Known specs: "vp_n_sigma",
/// "gauss_n_sigma", "cantelli_n_sigma", "median_k_mad", "iqr_whisker",
/// "chebyshev", "acet", "quantile", "evt". Throws std::invalid_argument
/// on an unknown spec (the message lists the valid ones).
[[nodiscard]] WcetOptPolicyPtr make_policy(
    std::string_view spec, const PolicyFactoryOptions& options = {});

/// Splits a comma-separated spec list ("vp_n_sigma,median_k_mad") and
/// builds each entry with make_policy. Empty input yields an empty list;
/// empty entries (",,") are rejected like unknown specs.
[[nodiscard]] std::vector<WcetOptPolicyPtr> make_policy_list(
    std::string_view specs, const PolicyFactoryOptions& options = {});

}  // namespace mcs::sched
