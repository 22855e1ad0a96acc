#include "sched/policies.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace mcs::sched {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv_mix_u64(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv_mix_double(std::uint64_t h, double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return fnv_mix_u64(h, bits);
}

// Seed for a profile's private synthesis stream: a pure function of the
// profile's parameters (and the distribution's identity), independent of
// the caller's RNG, the roster position, and the --jobs layout.
std::uint64_t synthesis_seed(const HcTaskProfile& profile) {
  std::uint64_t h = fnv_mix_u64(kFnvOffset, 0x5eed5a17u);
  h = fnv_mix_double(h, profile.acet);
  h = fnv_mix_double(h, profile.sigma);
  h = fnv_mix_double(h, profile.wcet_pes);
  h = fnv_mix_double(h, profile.period);
  if (profile.distribution != nullptr)
    for (const char c : profile.distribution->name()) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnvPrime;
    }
  return h;
}

double median_mad_level(const std::vector<double>& samples, double k) {
  const stats::EmpiricalDistribution dist(samples);
  const double median = dist.quantile(0.5);
  std::vector<double> deviations;
  deviations.reserve(samples.size());
  for (const double x : samples) deviations.push_back(std::abs(x - median));
  const double mad = stats::EmpiricalDistribution(deviations).quantile(0.5);
  return median + k * mad;
}

double iqr_whisker_level(const std::vector<double>& samples, double k) {
  const stats::EmpiricalDistribution dist(samples);
  const double q1 = dist.quantile(0.25);
  const double q3 = dist.quantile(0.75);
  return q3 + k * (q3 - q1);
}

// The sample set a profile-fitting policy reads: the measured samples
// when there are any, else a surrogate synthesized from the generating
// distribution into `surrogate`, else none (nullptr).
const std::vector<double>* fit_samples(const HcTaskProfile& profile,
                                       std::vector<double>& surrogate) {
  if (profile.samples != nullptr && !profile.samples->empty())
    return profile.samples;
  if (profile.distribution == nullptr) return nullptr;
  surrogate = synthesize_profile_samples(profile);
  return &surrogate;
}

}  // namespace

LambdaRangePolicy::LambdaRangePolicy(double lambda_min, double lambda_max)
    : lambda_min_(lambda_min), lambda_max_(lambda_max) {
  if (!(lambda_min > 0.0 && lambda_min <= lambda_max && lambda_max <= 1.0))
    throw std::invalid_argument(
        "LambdaRangePolicy: requires 0 < min <= max <= 1");
}

double LambdaRangePolicy::wcet_opt(const HcTaskProfile& profile,
                                   common::Rng& rng) const {
  const double lambda = rng.uniform(lambda_min_, lambda_max_);
  return lambda * profile.wcet_pes;
}

std::string LambdaRangePolicy::name() const {
  std::ostringstream out;
  out << "lambda[" << lambda_min_ << "," << lambda_max_ << "]";
  return out.str();
}

LambdaSetPolicy::LambdaSetPolicy(std::vector<double> lambdas)
    : lambdas_(std::move(lambdas)) {
  if (lambdas_.empty())
    throw std::invalid_argument("LambdaSetPolicy: empty value set");
  for (const double l : lambdas_)
    if (!(l > 0.0 && l <= 1.0))
      throw std::invalid_argument("LambdaSetPolicy: values must be in (0,1]");
}

double LambdaSetPolicy::wcet_opt(const HcTaskProfile& profile,
                                 common::Rng& rng) const {
  const auto idx = static_cast<std::size_t>(
      rng.uniform_u64(0, lambdas_.size() - 1));
  return lambdas_[idx] * profile.wcet_pes;
}

std::string LambdaSetPolicy::name() const {
  std::ostringstream out;
  out << "lambda{";
  for (std::size_t i = 0; i < lambdas_.size(); ++i) {
    if (i != 0) out << ",";
    out << lambdas_[i];
  }
  out << "}";
  return out.str();
}

double AcetPolicy::wcet_opt(const HcTaskProfile& profile,
                            common::Rng& /*rng*/) const {
  return std::min(profile.acet, profile.wcet_pes);
}

ChebyshevUniformPolicy::ChebyshevUniformPolicy(double n) : n_(n) {
  if (n < 0.0)
    throw std::invalid_argument("ChebyshevUniformPolicy: n must be >= 0");
}

double ChebyshevUniformPolicy::wcet_opt(const HcTaskProfile& profile,
                                        common::Rng& /*rng*/) const {
  return std::min(profile.acet + n_ * profile.sigma, profile.wcet_pes);
}

std::string ChebyshevUniformPolicy::name() const {
  std::ostringstream out;
  out << "chebyshev(n=" << n_ << ")";
  return out.str();
}

EmpiricalQuantilePolicy::EmpiricalQuantilePolicy(double q) : q_(q) {
  if (!(q > 0.0 && q <= 1.0))
    throw std::invalid_argument(
        "EmpiricalQuantilePolicy: q must be in (0, 1]");
}

double EmpiricalQuantilePolicy::wcet_opt(const HcTaskProfile& profile,
                                         common::Rng& /*rng*/) const {
  if (profile.samples == nullptr || profile.samples->empty())
    throw std::invalid_argument(
        "EmpiricalQuantilePolicy: profile has no samples");
  const double level =
      stats::EmpiricalDistribution(*profile.samples).quantile(q_);
  return std::min(level, profile.wcet_pes);
}

std::string EmpiricalQuantilePolicy::name() const {
  std::ostringstream out;
  out << "quantile(q=" << q_ << ")";
  return out.str();
}

EvtPwcetPolicy::EvtPwcetPolicy(double exceedance, std::size_t block_size)
    : exceedance_(exceedance), block_size_(block_size) {
  if (!(exceedance > 0.0 && exceedance < 1.0))
    throw std::invalid_argument(
        "EvtPwcetPolicy: exceedance must be in (0, 1)");
  if (block_size == 0)
    throw std::invalid_argument("EvtPwcetPolicy: block_size must be >= 1");
}

double EvtPwcetPolicy::wcet_opt(const HcTaskProfile& profile,
                                common::Rng& /*rng*/) const {
  if (profile.samples == nullptr || profile.samples->empty())
    throw std::invalid_argument("EvtPwcetPolicy: profile has no samples");
  const double level =
      stats::pwcet_block_maxima(*profile.samples, block_size_, exceedance_);
  // pWCET estimates are not certified; clamp into the valid C^LO range.
  return std::clamp(level, 1e-9, profile.wcet_pes);
}

std::string EvtPwcetPolicy::name() const {
  std::ostringstream out;
  out << "evt(p=" << exceedance_ << ", block=" << block_size_ << ")";
  return out.str();
}

std::vector<double> synthesize_profile_samples(const HcTaskProfile& profile,
                                               std::size_t count) {
  if (profile.distribution == nullptr)
    throw std::invalid_argument(
        "synthesize_profile_samples: profile has no distribution");
  if (count == 0)
    throw std::invalid_argument(
        "synthesize_profile_samples: count must be >= 1");
  common::Rng rng(synthesis_seed(profile));
  std::vector<double> samples(count);
  for (double& x : samples) x = profile.distribution->sample(rng);
  return samples;
}

ConcentrationBoundPolicy::ConcentrationBoundPolicy(stats::BoundKind kind,
                                                   double target_p)
    : kind_(kind),
      target_p_(target_p),
      n_bound_(0.0),
      n_fallback_(0.0) {
  if (!(target_p > 0.0 && target_p < 1.0))
    throw std::invalid_argument(
        "ConcentrationBoundPolicy: target_p must be in (0, 1)");
  n_bound_ = stats::concentration_n_for_target(kind, target_p);
  n_fallback_ =
      stats::concentration_n_for_target(stats::BoundKind::kCantelli,
                                        target_p);
}

double ConcentrationBoundPolicy::wcet_opt(const HcTaskProfile& profile,
                                          common::Rng& /*rng*/) const {
  double n = n_bound_;
  if (kind_ == stats::BoundKind::kVysochanskijPetunin ||
      kind_ == stats::BoundKind::kGauss) {
    std::vector<double> surrogate;
    const std::vector<double>* samples = fit_samples(profile, surrogate);
    if (samples == nullptr || !stats::unimodality_check(*samples).unimodal)
      n = n_fallback_;
  }
  // Same expression as ChebyshevUniformPolicy, so the fallback path is
  // bit-identical to chebyshev at the Cantelli multiplier.
  return std::min(profile.acet + n * profile.sigma, profile.wcet_pes);
}

std::string ConcentrationBoundPolicy::name() const {
  std::ostringstream out;
  out << stats::bound_name(kind_) << "(p=" << target_p_ << ")";
  return out.str();
}

MedianMadPolicy::MedianMadPolicy(double k) : k_(k) {
  if (!(k >= 0.0))
    throw std::invalid_argument("MedianMadPolicy: k must be >= 0");
}

double MedianMadPolicy::wcet_opt(const HcTaskProfile& profile,
                                 common::Rng& /*rng*/) const {
  std::vector<double> surrogate;
  const std::vector<double>* samples = fit_samples(profile, surrogate);
  if (samples == nullptr)
    throw std::invalid_argument(
        "MedianMadPolicy: profile has neither samples nor distribution");
  // Dispersion budgets are not certified bounds; clamp into (0, C^HI].
  return std::clamp(median_mad_level(*samples, k_), 1e-9, profile.wcet_pes);
}

std::string MedianMadPolicy::name() const {
  std::ostringstream out;
  out << "median+mad(k=" << k_ << ")";
  return out.str();
}

IqrWhiskerPolicy::IqrWhiskerPolicy(double k) : k_(k) {
  if (!(k >= 0.0))
    throw std::invalid_argument("IqrWhiskerPolicy: k must be >= 0");
}

double IqrWhiskerPolicy::wcet_opt(const HcTaskProfile& profile,
                                  common::Rng& /*rng*/) const {
  std::vector<double> surrogate;
  const std::vector<double>* samples = fit_samples(profile, surrogate);
  if (samples == nullptr)
    throw std::invalid_argument(
        "IqrWhiskerPolicy: profile has neither samples nor distribution");
  return std::clamp(iqr_whisker_level(*samples, k_), 1e-9, profile.wcet_pes);
}

std::string IqrWhiskerPolicy::name() const {
  std::ostringstream out;
  out << "iqr-whisker(k=" << k_ << ")";
  return out.str();
}

WcetOptPolicyPtr make_policy(std::string_view spec,
                             const PolicyFactoryOptions& options) {
  if (spec == "vp_n_sigma")
    return std::make_shared<ConcentrationBoundPolicy>(
        stats::BoundKind::kVysochanskijPetunin, options.target_p);
  if (spec == "gauss_n_sigma")
    return std::make_shared<ConcentrationBoundPolicy>(
        stats::BoundKind::kGauss, options.target_p);
  if (spec == "cantelli_n_sigma")
    return std::make_shared<ConcentrationBoundPolicy>(
        stats::BoundKind::kCantelli, options.target_p);
  if (spec == "median_k_mad")
    return std::make_shared<MedianMadPolicy>(options.mad_k);
  if (spec == "iqr_whisker")
    return std::make_shared<IqrWhiskerPolicy>(options.whisker_k);
  if (spec == "chebyshev")
    return std::make_shared<ChebyshevUniformPolicy>(options.chebyshev_n);
  if (spec == "acet") return std::make_shared<AcetPolicy>();
  if (spec == "quantile")
    return std::make_shared<EmpiricalQuantilePolicy>(options.quantile_q);
  if (spec == "evt") return std::make_shared<EvtPwcetPolicy>(options.evt_p);
  throw std::invalid_argument(
      "make_policy: unknown policy spec '" + std::string(spec) +
      "' (valid: vp_n_sigma, gauss_n_sigma, cantelli_n_sigma, "
      "median_k_mad, iqr_whisker, chebyshev, acet, quantile, evt)");
}

std::vector<WcetOptPolicyPtr> make_policy_list(
    std::string_view specs, const PolicyFactoryOptions& options) {
  std::vector<WcetOptPolicyPtr> policies;
  while (!specs.empty()) {
    const std::size_t comma = specs.find(',');
    const std::string_view spec = specs.substr(0, comma);
    policies.push_back(make_policy(spec, options));
    if (comma == std::string_view::npos) break;
    specs.remove_prefix(comma + 1);
    if (specs.empty())  // trailing comma: surface it like an unknown spec
      policies.push_back(make_policy(specs, options));
  }
  return policies;
}

}  // namespace mcs::sched
