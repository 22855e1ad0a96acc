// Golden regression hashes for the experiment drivers, plus
// library-level shard-slice equivalence.
//
// Each hash is FNV-1a over every result field, in result order, and must
// hold at every --jobs value; any change to the RNG stream assignment,
// the reduction order, or the experiment maths shows up here as a hash
// mismatch. The Monte Carlo drivers draw task set i of a point from
// Rng(index_seed(base, i)), and their hashes were recorded on those
// streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/executor.hpp"
#include "common/thread_pool.hpp"
#include "core/optimizer.hpp"
#include "exp/ablation.hpp"
#include "exp/fig2.hpp"
#include "exp/fig3.hpp"
#include "exp/fig6.hpp"
#include "exp/policy_sweep.hpp"
#include "exp/shootout.hpp"
#include "exp/table2.hpp"
#include "sched/policies.hpp"

namespace mcs {
namespace {

// Seed 2027 workloads below. Fig. 6, the policy sweep and Fig. 3 draw
// one index_seed stream per task set; Table II and Fig. 2 come from
// counter-seeded measurements.
constexpr std::uint64_t kGoldenFig6 = 0x8193c6f6680e822dULL;
constexpr std::uint64_t kGoldenPolicy = 0x26a69fa952a94eaeULL;
constexpr std::uint64_t kGoldenFig3 = 0xf5000624d0769560ULL;
constexpr std::uint64_t kGoldenTable2 = 0xcec2aceca1fa07e1ULL;
constexpr std::uint64_t kGoldenFig2 = 0x2343d937c0e52313ULL;

// Ablations A1 (GA vs best uniform n) and A2/A3 (simulator validation),
// on the small configurations test_exp_drivers runs.
constexpr std::uint64_t kGoldenGaVsUniform = 0x5e55cd649ff7a7f9ULL;
constexpr std::uint64_t kGoldenSimValidation = 0xc704c859611c96c7ULL;

// Recorded from the extended-roster runs of this revision. The legacy
// rows of the extended sweep are pinned separately against kGoldenPolicy
// above: appending shoot-out policies must not perturb a single bit of
// the pre-existing outputs.
constexpr std::uint64_t kGoldenPolicyExtended = 0x5581db9a4d870367ULL;
constexpr std::uint64_t kGoldenShootoutKernels = 0x89e1455c3c72aef0ULL;
// The two acceptance goldens differ: at U_bound 1.3 this 40-set sample
// holds one set that Eq. 8 rejects under the Cantelli and IQR-whisker
// budgets and the deadline-tightening search admits. The demand >=
// utilization check in the test pins the direction.
constexpr std::uint64_t kGoldenShootoutUtil = 0x8de09b7712375dc5ULL;
constexpr std::uint64_t kGoldenShootoutDemand = 0x56665f76fe734e25ULL;

// Island-model sweep goldens.
// The island workload runs 8 generations at migration interval 3, so the
// hash pins both migration boundaries (g=3, g=6) and the short final
// epoch (2 generations). The warm-start golden pins the sequential
// left-to-right chaining of point winners.
constexpr std::uint64_t kGoldenPolicyIslands = 0x6fc3daa7b9fdacddULL;
constexpr std::uint64_t kGoldenPolicyWarmStart = 0x83460d071be1e144ULL;

/// FNV-1a over 64-bit words; doubles are mixed by bit pattern, so any
/// non-identical bit anywhere flips the digest.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    hash_ ^= v;
    hash_ *= 0x100000001b3ULL;
  }
  void mix(double x) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    mix(u);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// RAII guard so a test's --jobs override never leaks into other tests.
class JobsGuard {
 public:
  explicit JobsGuard(std::size_t jobs) : saved_(common::default_jobs()) {
    common::set_default_jobs(jobs);
  }
  ~JobsGuard() { common::set_default_jobs(saved_); }

 private:
  std::size_t saved_;
};

constexpr std::size_t kJobsValues[] = {1, 2, 8};

std::uint64_t fig6_hash(const std::vector<exp::Fig6Point>& points) {
  Fnv fnv;
  for (const exp::Fig6Point& p : points) {
    fnv.mix(p.u_bound);
    fnv.mix(p.baruah_lambda);
    fnv.mix(p.baruah_chebyshev);
    fnv.mix(p.liu_lambda);
    fnv.mix(p.liu_chebyshev);
  }
  return fnv.value();
}

TEST(ExpGolden, Fig6MatchesSerialAtEveryJobs) {
  for (const std::size_t jobs : kJobsValues) {
    const JobsGuard guard(jobs);
    const auto points = exp::run_fig6({0.7, 1.0, 1.3}, 60, 2027);
    EXPECT_EQ(fig6_hash(points), kGoldenFig6) << "jobs=" << jobs;
  }
}

std::uint64_t policy_hash(const std::vector<exp::PolicySweepPoint>& points) {
  Fnv fnv;
  for (const exp::PolicySweepPoint& p : points) {
    fnv.mix(p.u_hc_hi);
    for (const core::PolicyScore& s : p.scores) {
      fnv.mix(static_cast<std::uint64_t>(s.policy.size()));
      fnv.mix(s.p_ms);
      fnv.mix(s.max_u_lc);
      fnv.mix(s.objective);
      fnv.mix(s.feasible_fraction);
    }
  }
  return fnv.value();
}

TEST(ExpGolden, PolicySweepMatchesSerialAtEveryJobs) {
  core::OptimizerConfig opt;
  opt.ga.population_size = 12;
  opt.ga.generations = 8;
  for (const std::size_t jobs : kJobsValues) {
    const JobsGuard guard(jobs);
    const auto points = exp::run_policy_sweep({0.5, 0.7}, 4, 2027, opt);
    EXPECT_EQ(policy_hash(points), kGoldenPolicy) << "jobs=" << jobs;
  }
}

std::uint64_t fig3_hash(const exp::Fig3Data& data) {
  Fnv fnv;
  for (const exp::Fig3Cell& c : data.cells) {
    fnv.mix(c.n);
    fnv.mix(c.u_hc_hi);
    fnv.mix(c.mean_p_ms);
    fnv.mix(c.mean_max_u_lc);
    fnv.mix(c.mean_objective);
  }
  return fnv.value();
}

TEST(ExpGolden, Fig3MatchesSerialAtEveryJobs) {
  for (const std::size_t jobs : kJobsValues) {
    const JobsGuard guard(jobs);
    const auto data = exp::run_fig3({5.0, 15.0}, {0.5, 0.8}, 30, 2027);
    EXPECT_EQ(fig3_hash(data), kGoldenFig3) << "jobs=" << jobs;
  }
}

std::uint64_t table2_hash(const exp::Table2Data& data) {
  Fnv fnv;
  for (const exp::Table2Row& r : data.rows) {
    fnv.mix(static_cast<std::uint64_t>(r.n));
    fnv.mix(r.analysis_bound);
    for (const double m : r.measured) fnv.mix(m);
  }
  return fnv.value();
}

TEST(ExpGolden, Table2MatchesSerialAtEveryJobs) {
  for (const std::size_t jobs : kJobsValues) {
    const JobsGuard guard(jobs);
    const auto data = exp::run_table2(200, 2027);
    EXPECT_EQ(table2_hash(data), kGoldenTable2) << "jobs=" << jobs;
  }
}

std::uint64_t fig2_hash(const exp::Fig2Data& data) {
  Fnv fnv;
  fnv.mix(data.u_hc_hi);
  for (const auto& p : data.sweep) {
    fnv.mix(p.n);
    fnv.mix(p.breakdown.p_ms);
    fnv.mix(p.breakdown.max_u_lc);
    fnv.mix(p.breakdown.objective);
  }
  fnv.mix(data.optimum.n);
  fnv.mix(data.optimum.breakdown.objective);
  return fnv.value();
}

TEST(ExpGolden, Fig2MatchesSerialAtEveryJobs) {
  for (const std::size_t jobs : kJobsValues) {
    const JobsGuard guard(jobs);
    const auto data = exp::run_fig2(0.85, 30.0, 1.0, 2027);
    EXPECT_EQ(fig2_hash(data), kGoldenFig2) << "jobs=" << jobs;
  }
}

/// The small GA that test_exp_drivers runs the ablations with.
core::OptimizerConfig ablation_ga() {
  core::OptimizerConfig opt;
  opt.ga.population_size = 16;
  opt.ga.generations = 12;
  return opt;
}

TEST(ExpGolden, GaVsUniformMatchesAtEveryJobs) {
  for (const std::size_t jobs : kJobsValues) {
    const JobsGuard guard(jobs);
    const auto points = exp::run_ga_vs_uniform({0.6}, 4, 10, ablation_ga());
    Fnv fnv;
    for (const exp::GaVsUniformPoint& p : points) {
      fnv.mix(p.u_hc_hi);
      fnv.mix(p.uniform_objective);
      fnv.mix(p.ga_objective);
      fnv.mix(p.ga_gaussian_objective);
      fnv.mix(p.mean_gain);
    }
    EXPECT_EQ(fnv.value(), kGoldenGaVsUniform) << "jobs=" << jobs;
  }
}

TEST(ExpGolden, SimValidationMatchesAtEveryJobs) {
  for (const std::size_t jobs : kJobsValues) {
    const JobsGuard guard(jobs);
    const auto points =
        exp::run_sim_validation({0.5}, 3, 40000.0, 11, ablation_ga());
    Fnv fnv;
    for (const exp::SimValidationPoint& p : points) {
      fnv.mix(p.u_hc_hi);
      fnv.mix(p.analytic_p_ms);
      fnv.mix(p.sim_overrun_rate);
      fnv.mix(p.sim_drop_rate_dropall);
      fnv.mix(p.sim_drop_rate_degrade);
      fnv.mix(p.sim_hc_miss_dropall);
      fnv.mix(p.sim_hc_miss_degrade);
    }
    EXPECT_EQ(fnv.value(), kGoldenSimValidation) << "jobs=" << jobs;
  }
}

TEST(ExpGolden, Fig6ShardSlicesConcatenateToUnsharded) {
  // Library-level shard contract: the concatenation of all shards'
  // points equals (bit-for-bit) the unsharded run, so mcs_merge only has
  // to concatenate partial CSVs.
  const JobsGuard guard(2);
  const std::vector<double> u_values = {0.7, 0.9, 1.1, 1.3, 1.5};
  const auto full = exp::run_fig6(u_values, 30, 2027);
  std::vector<exp::Fig6Point> stitched;
  for (std::size_t i = 0; i < 4; ++i) {
    const common::Executor exec(common::Shard{i, 4});
    const auto part = exp::run_fig6(u_values, 30, 2027, exec);
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  EXPECT_EQ(fig6_hash(stitched), fig6_hash(full));
  EXPECT_EQ(stitched.size(), full.size());
}

TEST(ExpGolden, PolicySweepShardSlicesConcatenateToUnsharded) {
  const JobsGuard guard(2);
  core::OptimizerConfig opt;
  opt.ga.population_size = 12;
  opt.ga.generations = 8;
  const std::vector<double> u_values = {0.5, 0.6, 0.7};
  const auto full = exp::run_policy_sweep(u_values, 3, 2027, opt);
  std::vector<exp::PolicySweepPoint> stitched;
  for (std::size_t i = 0; i < 2; ++i) {
    const common::Executor exec(common::Shard{i, 2});
    const auto part = exp::run_policy_sweep(u_values, 3, 2027, opt, exec);
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  EXPECT_EQ(policy_hash(stitched), policy_hash(full));
}

TEST(ExpGolden, Fig3ShardSlicesConcatenateToUnsharded) {
  // The fig3 grid is flattened row-major across shards, so concatenating
  // the shard cells reproduces the unsharded cell order exactly.
  const JobsGuard guard(2);
  const std::vector<double> n_values = {5.0, 15.0};
  const std::vector<double> u_values = {0.5, 0.8};
  const auto full = exp::run_fig3(n_values, u_values, 20, 2027);
  exp::Fig3Data stitched;
  for (std::size_t i = 0; i < 3; ++i) {
    const common::Executor exec(common::Shard{i, 3});
    const auto part = exp::run_fig3(n_values, u_values, 20, 2027, exec);
    stitched.cells.insert(stitched.cells.end(), part.cells.begin(),
                          part.cells.end());
  }
  EXPECT_EQ(fig3_hash(stitched), fig3_hash(full));
  EXPECT_EQ(stitched.cells.size(), full.cells.size());
}

TEST(ExpGolden, Table2ShardColumnsPasteToUnsharded) {
  // Table2 shards column-wise over the kernels: pasting each shard's
  // measured columns side by side (the mcs_merge --paste mode) must
  // rebuild the unsharded rows.
  const JobsGuard guard(2);
  const auto full = exp::run_table2(100, 2027);
  std::vector<exp::Table2Data> parts;
  for (std::size_t i = 0; i < 2; ++i) {
    const common::Executor exec(common::Shard{i, 2});
    parts.push_back(exp::run_table2(100, 2027, exec));
  }
  exp::Table2Data stitched;
  stitched.rows = parts[0].rows;
  for (std::size_t r = 0; r < stitched.rows.size(); ++r) {
    ASSERT_LT(r, parts[1].rows.size());
    stitched.rows[r].measured.insert(stitched.rows[r].measured.end(),
                                     parts[1].rows[r].measured.begin(),
                                     parts[1].rows[r].measured.end());
  }
  EXPECT_EQ(table2_hash(stitched), table2_hash(full));
}

TEST(ExpGolden, Fig2ShardSlicesConcatenateToUnsharded) {
  // Fig2 slices one pre-enumerated uniform-n grid; the stitched sweep
  // must match point-for-point (the per-shard optimum is slice-local, so
  // it is not compared here).
  const JobsGuard guard(2);
  const auto full = exp::run_fig2(0.85, 20.0, 1.0, 2027);
  std::vector<exp::Fig2Data> parts;
  std::size_t total = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const common::Executor exec(common::Shard{i, 3});
    parts.push_back(exp::run_fig2(0.85, 20.0, 1.0, 2027, exec));
    total += parts.back().sweep.size();
  }
  ASSERT_EQ(total, full.sweep.size());
  std::size_t k = 0;
  for (const exp::Fig2Data& part : parts) {
    for (const auto& p : part.sweep) {
      EXPECT_EQ(p.n, full.sweep[k].n);
      EXPECT_EQ(p.breakdown.objective, full.sweep[k].breakdown.objective);
      ++k;
    }
  }
}

TEST(ExpGolden, IslandPolicySweepMatchesAtEveryJobs) {
  // The proposed-scheme GA runs as 3 islands of 12 with ring migration
  // every 3 generations over 8 generations: epochs [0,3), [3,6), [6,8)
  // exercise two migration boundaries and a truncated final epoch. The
  // digest must not move at any --jobs value.
  core::OptimizerConfig opt;
  opt.ga.population_size = 12;
  opt.ga.generations = 8;
  opt.islands.islands = 3;
  opt.islands.migration_interval = 3;
  opt.islands.migrants = 2;
  for (const std::size_t jobs : kJobsValues) {
    const JobsGuard guard(jobs);
    const auto points = exp::run_policy_sweep({0.5, 0.7}, 4, 2027, opt);
    EXPECT_EQ(policy_hash(points), kGoldenPolicyIslands) << "jobs=" << jobs;
  }
}

TEST(ExpGolden, IslandPolicySweepShardSlicesConcatenateToUnsharded) {
  // Epoch-based migration keeps the island sweep shardable: stitching the
  // per-shard points reproduces the unsharded island run bit for bit.
  const JobsGuard guard(2);
  core::OptimizerConfig opt;
  opt.ga.population_size = 12;
  opt.ga.generations = 8;
  opt.islands.islands = 3;
  opt.islands.migration_interval = 3;
  opt.islands.migrants = 2;
  const std::vector<double> u_values = {0.5, 0.6, 0.7};
  const auto full = exp::run_policy_sweep(u_values, 3, 2027, opt);
  std::vector<exp::PolicySweepPoint> stitched;
  for (std::size_t i = 0; i < 2; ++i) {
    const common::Executor exec(common::Shard{i, 2});
    const auto part = exp::run_policy_sweep(u_values, 3, 2027, opt, exec);
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  EXPECT_EQ(policy_hash(stitched), policy_hash(full));
}

TEST(ExpGolden, WarmStartPolicySweepMatchesAtEveryJobs) {
  // Warm start chains each point's island populations off the previous
  // point's winners. The chain itself must be --jobs invariant, and the
  // first point (no left neighbour -> no seed genomes -> legacy path)
  // must match the cold sweep's first point bit for bit.
  core::OptimizerConfig opt;
  opt.ga.population_size = 12;
  opt.ga.generations = 8;
  const auto cold = exp::run_policy_sweep({0.5, 0.7}, 4, 2027, opt);
  for (const std::size_t jobs : kJobsValues) {
    const JobsGuard guard(jobs);
    const auto warm = exp::run_policy_sweep({0.5, 0.7}, 4, 2027, opt, {}, {},
                                            /*warm_start=*/true);
    EXPECT_EQ(policy_hash(warm), kGoldenPolicyWarmStart) << "jobs=" << jobs;
    ASSERT_EQ(warm.size(), cold.size());
    EXPECT_EQ(policy_hash({warm[0]}), policy_hash({cold[0]}))
        << "first point must be identical to the cold sweep";
  }
}

TEST(ExpGolden, WarmStartRejectsShardedExecutor) {
  core::OptimizerConfig opt;
  opt.ga.population_size = 12;
  opt.ga.generations = 8;
  const common::Executor exec(common::Shard{0, 2});
  EXPECT_THROW(exp::run_policy_sweep({0.5, 0.7}, 2, 2027, opt, exec, {},
                                     /*warm_start=*/true),
               std::invalid_argument);
}

// --- Shoot-out policy axes -------------------------------------------

/// The extra roster appended to the sweep in the extended-golden tests.
std::vector<sched::WcetOptPolicyPtr> extended_roster() {
  return sched::make_policy_list("vp_n_sigma,gauss_n_sigma,median_k_mad");
}

TEST(ExpGolden, ExtendedPolicySweepKeepsLegacyRowsByteIdentical) {
  // The same workload as PolicySweepMatchesSerialAtEveryJobs, with three
  // shoot-out policies appended. The appended rows hash to their own
  // golden; stripping them must reproduce the PRE-extension golden
  // exactly, because the extras draw nothing from the shared RNG streams.
  core::OptimizerConfig opt;
  opt.ga.population_size = 12;
  opt.ga.generations = 8;
  for (const std::size_t jobs : kJobsValues) {
    const JobsGuard guard(jobs);
    const auto points = exp::run_policy_sweep({0.5, 0.7}, 4, 2027, opt, {},
                                              extended_roster());
    EXPECT_EQ(policy_hash(points), kGoldenPolicyExtended) << "jobs=" << jobs;
    auto stripped = points;
    for (auto& p : stripped) {
      ASSERT_GE(p.scores.size(), 3u);
      p.scores.resize(p.scores.size() - 3);
    }
    EXPECT_EQ(policy_hash(stripped), kGoldenPolicy) << "jobs=" << jobs;
  }
}

std::uint64_t kernel_rows_hash(
    const std::vector<exp::ShootoutKernelRow>& rows) {
  Fnv fnv;
  for (const exp::ShootoutKernelRow& r : rows) {
    fnv.mix(static_cast<std::uint64_t>(r.application.size()));
    fnv.mix(static_cast<std::uint64_t>(r.policy.size()));
    fnv.mix(r.wcet_opt);
    fnv.mix(r.utilization_cost);
    fnv.mix(r.implied_n);
    fnv.mix(r.bound_p);
    fnv.mix(r.target_p);
    fnv.mix(r.train_exceedance);
    fnv.mix(r.holdout_exceedance);
    fnv.mix(static_cast<std::uint64_t>(r.unimodal ? 1 : 0));
  }
  return fnv.value();
}

TEST(ExpGolden, ShootoutKernelsMatchAtEveryJobs) {
  const auto roster = exp::shootout_policies();
  for (const std::size_t jobs : kJobsValues) {
    const JobsGuard guard(jobs);
    const auto rows = exp::run_shootout_kernels(roster, 200, 2027);
    EXPECT_EQ(kernel_rows_hash(rows), kGoldenShootoutKernels)
        << "jobs=" << jobs;
  }
}

TEST(ExpGolden, ShootoutKernelShardSlicesConcatenateToUnsharded) {
  const JobsGuard guard(2);
  const auto roster = exp::shootout_policies();
  const auto full = exp::run_shootout_kernels(roster, 200, 2027);
  std::vector<exp::ShootoutKernelRow> stitched;
  for (std::size_t i = 0; i < 2; ++i) {
    const common::Executor exec(common::Shard{i, 2});
    const auto part = exp::run_shootout_kernels(roster, 200, 2027, exec);
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  EXPECT_EQ(kernel_rows_hash(stitched), kernel_rows_hash(full));
  EXPECT_EQ(stitched.size(), full.size());
}

std::uint64_t shootout_hash(const exp::ShootoutAcceptance& data) {
  Fnv fnv;
  fnv.mix(static_cast<std::uint64_t>(data.policies.size()));
  for (const std::string& name : data.policies)
    fnv.mix(static_cast<std::uint64_t>(name.size()));
  for (const exp::ShootoutAcceptancePoint& p : data.points) {
    fnv.mix(p.u_bound);
    for (const double r : p.ratios) fnv.mix(r);
  }
  return fnv.value();
}

TEST(ExpGolden, ShootoutAcceptanceMatchesAtEveryJobs) {
  const auto roster = exp::shootout_policies();
  for (const std::size_t jobs : kJobsValues) {
    const JobsGuard guard(jobs);
    // The grid straddles the acceptance knee (all-accept at 1.1, partial
    // at 1.2/1.3), so the hash pins non-trivial ratios.
    const auto util = exp::run_shootout_acceptance(
        roster, core::AdmissionBackend::kUtilization, {1.1, 1.2, 1.3}, 40,
        2027);
    EXPECT_EQ(shootout_hash(util), kGoldenShootoutUtil) << "jobs=" << jobs;
    const auto demand = exp::run_shootout_acceptance(
        roster, core::AdmissionBackend::kDemand, {1.1, 1.2, 1.3}, 40, 2027);
    EXPECT_EQ(shootout_hash(demand), kGoldenShootoutDemand)
        << "jobs=" << jobs;
    // The demand backend only ever flips rejections to admissions, so
    // its acceptance ratio dominates pointwise.
    ASSERT_EQ(demand.points.size(), util.points.size());
    for (std::size_t i = 0; i < util.points.size(); ++i)
      for (std::size_t p = 0; p < util.points[i].ratios.size(); ++p)
        EXPECT_GE(demand.points[i].ratios[p], util.points[i].ratios[p])
            << "u=" << util.points[i].u_bound << " policy=" << p;
  }
}

TEST(ExpGolden, ShootoutAcceptanceShardSlicesConcatenateToUnsharded) {
  const JobsGuard guard(2);
  const auto roster = exp::shootout_policies();
  const std::vector<double> u_values = {0.7, 0.9, 1.1, 1.3};
  const auto full = exp::run_shootout_acceptance(
      roster, core::AdmissionBackend::kUtilization, u_values, 30, 2027);
  exp::ShootoutAcceptance stitched;
  stitched.policies = full.policies;
  stitched.backend = full.backend;
  for (std::size_t i = 0; i < 3; ++i) {
    const common::Executor exec(common::Shard{i, 3});
    const auto part = exp::run_shootout_acceptance(
        roster, core::AdmissionBackend::kUtilization, u_values, 30, 2027,
        exec);
    stitched.points.insert(stitched.points.end(), part.points.begin(),
                           part.points.end());
  }
  EXPECT_EQ(shootout_hash(stitched), shootout_hash(full));
  EXPECT_EQ(stitched.points.size(), full.points.size());
}

}  // namespace
}  // namespace mcs
