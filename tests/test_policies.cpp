// Tests for sched/policies.hpp — the C^LO assignment policy roster.
#include "sched/policies.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/distributions.hpp"

namespace mcs::sched {
namespace {

const HcTaskProfile kProfile{.acet = 10.0, .sigma = 2.0, .wcet_pes = 100.0,
                             .period = 200.0};

TEST(LambdaRange, OutputWithinRange) {
  LambdaRangePolicy policy(0.25, 1.0);
  common::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double w = policy.wcet_opt(kProfile, rng);
    EXPECT_GE(w, 25.0);
    EXPECT_LE(w, 100.0);
  }
}

TEST(LambdaRange, NameMentionsBounds) {
  const LambdaRangePolicy policy(0.25, 1.0);
  EXPECT_NE(policy.name().find("0.25"), std::string::npos);
}

TEST(LambdaRange, Validation) {
  EXPECT_THROW(LambdaRangePolicy(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LambdaRangePolicy(0.5, 0.4), std::invalid_argument);
  EXPECT_THROW(LambdaRangePolicy(0.5, 1.5), std::invalid_argument);
}

TEST(LambdaSet, DrawsOnlyListedValues) {
  LambdaSetPolicy policy({0.25, 0.5});
  common::Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const double w = policy.wcet_opt(kProfile, rng);
    EXPECT_TRUE(w == 25.0 || w == 50.0) << w;
  }
}

TEST(LambdaSet, EventuallyDrawsAllValues) {
  LambdaSetPolicy policy({0.25, 0.5, 1.0});
  common::Rng rng(3);
  bool saw25 = false;
  bool saw50 = false;
  bool saw100 = false;
  for (int i = 0; i < 500; ++i) {
    const double w = policy.wcet_opt(kProfile, rng);
    saw25 |= w == 25.0;
    saw50 |= w == 50.0;
    saw100 |= w == 100.0;
  }
  EXPECT_TRUE(saw25 && saw50 && saw100);
}

TEST(LambdaSet, Validation) {
  EXPECT_THROW(LambdaSetPolicy({}), std::invalid_argument);
  EXPECT_THROW(LambdaSetPolicy({0.5, 1.5}), std::invalid_argument);
  EXPECT_THROW(LambdaSetPolicy({0.0}), std::invalid_argument);
}

TEST(Acet, ReturnsAcet) {
  AcetPolicy policy;
  common::Rng rng(4);
  EXPECT_DOUBLE_EQ(policy.wcet_opt(kProfile, rng), 10.0);
  EXPECT_EQ(policy.name(), "ACET");
}

TEST(Acet, ClampsToPessimistic) {
  AcetPolicy policy;
  common::Rng rng(4);
  const HcTaskProfile odd{.acet = 150.0, .sigma = 1.0, .wcet_pes = 100.0,
                          .period = 200.0};
  EXPECT_DOUBLE_EQ(policy.wcet_opt(odd, rng), 100.0);
}

TEST(ChebyshevUniform, ComputesEq6WithClamp) {
  ChebyshevUniformPolicy policy(3.0);
  common::Rng rng(5);
  EXPECT_DOUBLE_EQ(policy.wcet_opt(kProfile, rng), 16.0);  // 10 + 3*2
  ChebyshevUniformPolicy huge(100.0);
  EXPECT_DOUBLE_EQ(huge.wcet_opt(kProfile, rng), 100.0);   // Eq. 9 clamp
}

TEST(ChebyshevUniform, Validation) {
  EXPECT_THROW(ChebyshevUniformPolicy(-1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(ChebyshevUniformPolicy(2.5).n(), 2.5);
}

std::vector<double> ramp_samples() {
  std::vector<double> xs(100);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<double>(i + 1);  // 1..100
  return xs;
}

TEST(EmpiricalQuantile, PicksSampleQuantile) {
  const std::vector<double> xs = ramp_samples();
  HcTaskProfile profile = kProfile;
  profile.samples = &xs;
  profile.wcet_pes = 1000.0;
  EmpiricalQuantilePolicy policy(0.9);
  common::Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.wcet_opt(profile, rng), 90.0);
}

TEST(EmpiricalQuantile, ClampsToPessimistic) {
  const std::vector<double> xs = ramp_samples();
  HcTaskProfile profile = kProfile;
  profile.samples = &xs;
  profile.wcet_pes = 50.0;
  EmpiricalQuantilePolicy policy(1.0);
  common::Rng rng(2);
  EXPECT_DOUBLE_EQ(policy.wcet_opt(profile, rng), 50.0);
}

TEST(EmpiricalQuantile, Validation) {
  EXPECT_THROW(EmpiricalQuantilePolicy(0.0), std::invalid_argument);
  EXPECT_THROW(EmpiricalQuantilePolicy(1.1), std::invalid_argument);
  EmpiricalQuantilePolicy policy(0.5);
  common::Rng rng(3);
  EXPECT_THROW((void)policy.wcet_opt(kProfile, rng), std::invalid_argument);
}

TEST(EvtPwcet, ProducesLevelInRange) {
  common::Rng data_rng(4);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(data_rng.normal(50.0, 5.0));
  HcTaskProfile profile = kProfile;
  profile.samples = &xs;
  profile.wcet_pes = 500.0;
  EvtPwcetPolicy policy(0.01, 50);
  common::Rng rng(5);
  const double level = policy.wcet_opt(profile, rng);
  EXPECT_GT(level, 50.0);   // above the mean
  EXPECT_LE(level, 500.0);  // clamped
  // A rarer exceedance target demands a higher level.
  EvtPwcetPolicy rarer(0.001, 50);
  EXPECT_GT(rarer.wcet_opt(profile, rng), level);
}

TEST(EvtPwcet, Validation) {
  EXPECT_THROW(EvtPwcetPolicy(0.0), std::invalid_argument);
  EXPECT_THROW(EvtPwcetPolicy(1.0), std::invalid_argument);
  EXPECT_THROW(EvtPwcetPolicy(0.5, 0), std::invalid_argument);
  EvtPwcetPolicy policy(0.1);
  common::Rng rng(6);
  EXPECT_THROW((void)policy.wcet_opt(kProfile, rng), std::invalid_argument);
}

TEST(PolicyLevel, RepeatedCallsReturnIdenticalLevels) {
  // Every repeated call with the same profile returns the bit-identical
  // level.
  const std::vector<double> xs = ramp_samples();
  HcTaskProfile profile = kProfile;
  profile.samples = &xs;
  profile.wcet_pes = 1000.0;
  common::Rng rng(10);

  EmpiricalQuantilePolicy quantile(0.9);
  const double first = quantile.wcet_opt(profile, rng);
  for (int i = 0; i < 100; ++i)
    ASSERT_DOUBLE_EQ(quantile.wcet_opt(profile, rng), first);

  common::Rng data_rng(11);
  std::vector<double> big;
  for (int i = 0; i < 2000; ++i) big.push_back(data_rng.normal(50.0, 5.0));
  profile.samples = &big;
  EvtPwcetPolicy evt(0.01, 50);
  const double evt_first = evt.wcet_opt(profile, rng);
  for (int i = 0; i < 100; ++i)
    ASSERT_DOUBLE_EQ(evt.wcet_opt(profile, rng), evt_first);
}

TEST(PolicyLevel, RefitsWhenSameAddressHoldsNewData) {
  // The sweep loops reuse one sample vector for different tasks; the
  // level must follow the contents, not the address.
  std::vector<double> xs = ramp_samples();  // 1..100
  HcTaskProfile profile = kProfile;
  profile.samples = &xs;
  profile.wcet_pes = 1000.0;
  common::Rng rng(12);
  EmpiricalQuantilePolicy policy(0.9);
  EXPECT_DOUBLE_EQ(policy.wcet_opt(profile, rng), 90.0);

  for (double& x : xs) x *= 2.0;  // same address, new data
  EXPECT_DOUBLE_EQ(policy.wcet_opt(profile, rng), 180.0);

  xs.resize(50);  // size change at the same address
  EXPECT_DOUBLE_EQ(policy.wcet_opt(profile, rng),
                   stats::EmpiricalDistribution(xs).quantile(0.9));
}

TEST(PolicyLevel, DistinctVectorsFitIndependently) {
  const std::vector<double> a = ramp_samples();
  std::vector<double> b = ramp_samples();
  for (double& x : b) x += 100.0;  // 101..200
  HcTaskProfile profile = kProfile;
  profile.wcet_pes = 1000.0;
  common::Rng rng(13);
  EmpiricalQuantilePolicy policy(0.9);
  profile.samples = &a;
  EXPECT_DOUBLE_EQ(policy.wcet_opt(profile, rng), 90.0);
  profile.samples = &b;
  EXPECT_DOUBLE_EQ(policy.wcet_opt(profile, rng), 190.0);
  profile.samples = &a;  // back to the first vector, same level
  EXPECT_DOUBLE_EQ(policy.wcet_opt(profile, rng), 90.0);
}

TEST(PolicyNames, NewPoliciesDescriptive) {
  EXPECT_NE(EmpiricalQuantilePolicy(0.9).name().find("quantile"),
            std::string::npos);
  EXPECT_NE(EvtPwcetPolicy(0.1).name().find("evt"), std::string::npos);
}

TEST(PolicyLevel, RefitsOnInteriorMutationPreservingSizeAndEndpoints) {
  // A mutation that keeps the size, the first element and the last
  // element still moves the level.
  std::vector<double> xs(50);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<double>(i + 1);  // 1..50
  HcTaskProfile profile = kProfile;
  profile.samples = &xs;
  profile.wcet_pes = 1000.0;
  common::Rng rng(14);
  EmpiricalQuantilePolicy policy(0.9);
  const double before = policy.wcet_opt(profile, rng);
  EXPECT_DOUBLE_EQ(before, stats::EmpiricalDistribution(xs).quantile(0.9));

  xs[25] = 500.0;  // interior only: size, xs.front(), xs.back() unchanged
  ASSERT_EQ(xs.size(), 50u);
  ASSERT_DOUBLE_EQ(xs.front(), 1.0);
  ASSERT_DOUBLE_EQ(xs.back(), 50.0);

  const double after = policy.wcet_opt(profile, rng);
  EXPECT_DOUBLE_EQ(after, stats::EmpiricalDistribution(xs).quantile(0.9));
  EXPECT_NE(after, before);
}

TEST(PolicyLevel, RefitsWhenMutationSkipsEverySixteenthElement) {
  // 1,000 samples changed everywhere except the endpoints and every 16th
  // index: a memo that sampled only those elements would keep the stale
  // 900.
  std::vector<double> xs(1000);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<double>(i + 1);  // 1..1000
  HcTaskProfile profile = kProfile;
  profile.samples = &xs;
  profile.wcet_pes = 10000.0;
  common::Rng rng(16);
  const EmpiricalQuantilePolicy policy(0.9);
  EXPECT_EQ(policy.wcet_opt(profile, rng), 900.0);

  for (std::size_t i = 1; i + 1 < xs.size(); ++i)
    if (i % 16 != 0) xs[i] += 5000.0;
  EXPECT_EQ(policy.wcet_opt(profile, rng), 5892.0);
}

TEST(PolicyLevel, LevelIsContentBased) {
  // Equal contents at different addresses give the same level; a change
  // of 1e-9 in the element the 0.9 quantile picks moves it.
  const std::vector<double> a = ramp_samples();
  const std::vector<double> b = ramp_samples();
  std::vector<double> c = ramp_samples();
  c[89] += 1e-9;
  HcTaskProfile profile = kProfile;
  profile.wcet_pes = 1000.0;
  common::Rng rng(15);
  const EmpiricalQuantilePolicy policy(0.9);
  profile.samples = &a;
  const double level_a = policy.wcet_opt(profile, rng);
  profile.samples = &b;
  EXPECT_EQ(policy.wcet_opt(profile, rng), level_a);
  profile.samples = &c;
  EXPECT_EQ(policy.wcet_opt(profile, rng), 90.0 + 1e-9);
}

// --- Concentration-bound policy family -------------------------------

/// Deterministic, clearly unimodal sample set (no construction RNG cost
/// beyond one fixed seed; the verdict is reproducible by construction).
std::vector<double> unimodal_samples() {
  common::Rng rng(42);
  std::vector<double> xs(1000);
  for (double& x : xs) x = rng.normal(50.0, 5.0);
  return xs;
}

/// Two well-separated clusters; trivially rejected by the histogram
/// pre-check. Deterministic, no RNG.
std::vector<double> bimodal_samples() {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(9.0 + 0.02 * i);
  for (int i = 0; i < 100; ++i) xs.push_back(89.0 + 0.02 * i);
  return xs;
}

TEST(ConcentrationBound, UsesBoundMultiplierWhenPremiseCertified) {
  const std::vector<double> xs = unimodal_samples();
  ASSERT_TRUE(stats::unimodality_check(xs).unimodal);
  HcTaskProfile profile = kProfile;
  profile.samples = &xs;
  common::Rng rng(20);
  const ConcentrationBoundPolicy vp(stats::BoundKind::kVysochanskijPetunin,
                                    0.1);
  EXPECT_LT(vp.n_bound(), vp.n_fallback());  // the point of the premise
  EXPECT_DOUBLE_EQ(vp.wcet_opt(profile, rng),
                   std::min(profile.acet + vp.n_bound() * profile.sigma,
                            profile.wcet_pes));
  // Gauss <= VP <= Cantelli carries through to the assigned C^LO.
  const ConcentrationBoundPolicy gauss(stats::BoundKind::kGauss, 0.1);
  const ConcentrationBoundPolicy cantelli(stats::BoundKind::kCantelli, 0.1);
  EXPECT_LE(gauss.wcet_opt(profile, rng), vp.wcet_opt(profile, rng));
  EXPECT_LE(vp.wcet_opt(profile, rng), cantelli.wcet_opt(profile, rng));
}

TEST(ConcentrationBound, FallsBackToCantelliBitIdentically) {
  // When the unimodality pre-check rejects, VP/Gauss must produce the
  // exact ChebyshevUniformPolicy value at the Cantelli multiplier —
  // bit-identical, not approximately equal.
  const std::vector<double> xs = bimodal_samples();
  ASSERT_FALSE(stats::unimodality_check(xs).unimodal);
  HcTaskProfile profile = kProfile;
  profile.samples = &xs;
  common::Rng rng(21);
  for (const stats::BoundKind kind :
       {stats::BoundKind::kVysochanskijPetunin, stats::BoundKind::kGauss}) {
    const ConcentrationBoundPolicy policy(kind, 0.1);
    const ChebyshevUniformPolicy oracle(policy.n_fallback());
    EXPECT_EQ(policy.wcet_opt(profile, rng), oracle.wcet_opt(profile, rng))
        << stats::bound_name(kind);
  }
  // Same fallback when no sample source exists at all.
  for (const stats::BoundKind kind :
       {stats::BoundKind::kVysochanskijPetunin, stats::BoundKind::kGauss}) {
    const ConcentrationBoundPolicy policy(kind, 0.1);
    const ChebyshevUniformPolicy oracle(policy.n_fallback());
    EXPECT_EQ(policy.wcet_opt(kProfile, rng), oracle.wcet_opt(kProfile, rng))
        << stats::bound_name(kind);
  }
  // Cantelli itself needs no premise: bound == fallback regardless.
  const ConcentrationBoundPolicy cantelli(stats::BoundKind::kCantelli, 0.1);
  EXPECT_DOUBLE_EQ(cantelli.n_bound(), cantelli.n_fallback());
  EXPECT_EQ(cantelli.wcet_opt(profile, rng),
            ChebyshevUniformPolicy(cantelli.n_bound())
                .wcet_opt(profile, rng));
}

TEST(ConcentrationBound, SynthesizesFromDistributionDeterministically) {
  const stats::NormalDistribution dist(50.0, 5.0);
  HcTaskProfile profile = kProfile;
  profile.distribution = &dist;
  const ConcentrationBoundPolicy vp(stats::BoundKind::kVysochanskijPetunin,
                                    0.1);
  common::Rng rng(22);
  const double first = vp.wcet_opt(profile, rng);
  // A normal surrogate certifies the premise: the VP multiplier applies.
  EXPECT_DOUBLE_EQ(first,
                   std::min(profile.acet + vp.n_bound() * profile.sigma,
                            profile.wcet_pes));
  for (int i = 0; i < 10; ++i)
    ASSERT_EQ(vp.wcet_opt(profile, rng), first);
  // A second policy instance agrees exactly (the synthesis stream hashes
  // the profile, never instance or RNG state).
  const ConcentrationBoundPolicy again(stats::BoundKind::kVysochanskijPetunin,
                                       0.1);
  EXPECT_EQ(again.wcet_opt(profile, rng), first);
  // The caller's RNG stream is untouched by the bound policies.
  common::Rng used(7);
  (void)vp.wcet_opt(profile, used);
  common::Rng fresh(7);
  EXPECT_EQ(used.uniform(0.0, 1.0), fresh.uniform(0.0, 1.0));
}

TEST(ConcentrationBound, RangeNamesAndValidation) {
  const std::vector<double> xs = unimodal_samples();
  HcTaskProfile profile = kProfile;
  profile.samples = &xs;
  common::Rng rng(23);
  for (const stats::BoundKind kind :
       {stats::BoundKind::kCantelli, stats::BoundKind::kChebyshev,
        stats::BoundKind::kVysochanskijPetunin, stats::BoundKind::kGauss}) {
    const ConcentrationBoundPolicy policy(kind, 0.05);
    const double w = policy.wcet_opt(profile, rng);
    EXPECT_GT(w, 0.0) << stats::bound_name(kind);
    EXPECT_LE(w, profile.wcet_pes) << stats::bound_name(kind);
    EXPECT_NE(policy.name().find(std::string(stats::bound_name(kind))),
              std::string::npos);
    EXPECT_NE(policy.name().find("0.05"), std::string::npos);
  }
  EXPECT_THROW(
      ConcentrationBoundPolicy(stats::BoundKind::kVysochanskijPetunin, 0.0),
      std::invalid_argument);
  EXPECT_THROW(
      ConcentrationBoundPolicy(stats::BoundKind::kVysochanskijPetunin, 1.0),
      std::invalid_argument);
}

TEST(SynthesizeProfileSamples, DeterministicAndValidated) {
  const stats::NormalDistribution dist(50.0, 5.0);
  HcTaskProfile profile = kProfile;
  profile.distribution = &dist;
  const std::vector<double> a = synthesize_profile_samples(profile);
  const std::vector<double> b = synthesize_profile_samples(profile);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 1024u);
  // Different profile parameters seed a different stream.
  HcTaskProfile other = profile;
  other.acet = 11.0;
  EXPECT_NE(synthesize_profile_samples(other), a);
  EXPECT_THROW((void)synthesize_profile_samples(kProfile),
               std::invalid_argument);
  EXPECT_THROW((void)synthesize_profile_samples(profile, 0),
               std::invalid_argument);
}

TEST(DispersionBudgets, MatchClosedFormOnSamples) {
  const std::vector<double> xs = ramp_samples();
  HcTaskProfile profile = kProfile;
  profile.samples = &xs;
  profile.wcet_pes = 1000.0;
  common::Rng rng(24);

  const double median = stats::EmpiricalDistribution(xs).quantile(0.5);
  std::vector<double> deviations;
  for (const double x : xs) deviations.push_back(std::abs(x - median));
  const double mad = stats::EmpiricalDistribution(deviations).quantile(0.5);
  EXPECT_DOUBLE_EQ(MedianMadPolicy(3.0).wcet_opt(profile, rng),
                   median + 3.0 * mad);
  EXPECT_DOUBLE_EQ(MedianMadPolicy(0.0).wcet_opt(profile, rng), median);

  const double q1 = stats::EmpiricalDistribution(xs).quantile(0.25);
  const double q3 = stats::EmpiricalDistribution(xs).quantile(0.75);
  EXPECT_DOUBLE_EQ(IqrWhiskerPolicy(1.5).wcet_opt(profile, rng),
                   q3 + 1.5 * (q3 - q1));

  // Clamped into (0, C^HI] like every other policy.
  profile.wcet_pes = 50.0;
  EXPECT_DOUBLE_EQ(IqrWhiskerPolicy(100.0).wcet_opt(profile, rng), 50.0);
}

TEST(DispersionBudgets, SynthesisPathAndValidation) {
  const stats::NormalDistribution dist(50.0, 5.0);
  HcTaskProfile profile = kProfile;
  profile.distribution = &dist;
  common::Rng rng(25);
  const MedianMadPolicy mad(3.0);
  const double first = mad.wcet_opt(profile, rng);
  EXPECT_GT(first, 0.0);
  EXPECT_LE(first, profile.wcet_pes);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(mad.wcet_opt(profile, rng), first);
  const IqrWhiskerPolicy whisker(1.5);
  const double w = whisker.wcet_opt(profile, rng);
  EXPECT_GT(w, 0.0);
  EXPECT_LE(w, profile.wcet_pes);

  EXPECT_THROW(MedianMadPolicy(-1.0), std::invalid_argument);
  EXPECT_THROW(IqrWhiskerPolicy(-0.5), std::invalid_argument);
  EXPECT_THROW((void)mad.wcet_opt(kProfile, rng), std::invalid_argument);
  EXPECT_THROW((void)whisker.wcet_opt(kProfile, rng), std::invalid_argument);
  EXPECT_NE(mad.name().find("mad"), std::string::npos);
  EXPECT_NE(whisker.name().find("iqr"), std::string::npos);
}

TEST(PolicyFactory, BuildsEverySpecAndRejectsUnknown) {
  PolicyFactoryOptions options;
  options.target_p = 0.2;
  const char* specs[] = {"vp_n_sigma",  "gauss_n_sigma", "cantelli_n_sigma",
                         "median_k_mad", "iqr_whisker",  "chebyshev",
                         "acet",        "quantile",      "evt"};
  for (const char* spec : specs) {
    const WcetOptPolicyPtr policy = make_policy(spec, options);
    ASSERT_NE(policy, nullptr) << spec;
    EXPECT_FALSE(policy->name().empty()) << spec;
  }
  const WcetOptPolicyPtr vp_policy = make_policy("vp_n_sigma", options);
  const auto* vp =
      dynamic_cast<const ConcentrationBoundPolicy*>(vp_policy.get());
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->kind(), stats::BoundKind::kVysochanskijPetunin);
  EXPECT_DOUBLE_EQ(vp->target_p(), 0.2);
  try {
    (void)make_policy("nope");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message must list the valid specs for CLI discoverability.
    EXPECT_NE(std::string(e.what()).find("vp_n_sigma"), std::string::npos);
  }
}

TEST(PolicyFactory, ListParsing) {
  const auto roster = make_policy_list("vp_n_sigma,median_k_mad,acet");
  ASSERT_EQ(roster.size(), 3u);
  EXPECT_EQ(roster[2]->name(), "ACET");
  EXPECT_TRUE(make_policy_list("").empty());
  EXPECT_THROW((void)make_policy_list("vp_n_sigma,,acet"),
               std::invalid_argument);
  EXPECT_THROW((void)make_policy_list("acet,"), std::invalid_argument);
  EXPECT_THROW((void)make_policy_list("acet,bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace mcs::sched
