// Determinism contract tests: every parallelized pipeline (measurement
// campaigns, GA, Monte Carlo sweeps, experiment drivers) must produce
// bit-identical results across the --jobs matrix {1, 2, 8}, across
// repeated runs, and across chunked vs unchunked dispatch.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "apps/measurement.hpp"
#include "apps/registry.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/acceptance.hpp"
#include "core/comparison.hpp"
#include "exp/ablation.hpp"
#include "exp/assignment_methods.hpp"
#include "exp/fig3.hpp"
#include "exp/fig6.hpp"
#include "exp/multicore.hpp"
#include "exp/table1.hpp"
#include "exp/table2.hpp"
#include "ga/islands.hpp"

namespace mcs {
namespace {

/// Runs `make_result` across the --jobs matrix {1, 2, 8} plus a repeated
/// run at 8 jobs, returning the four results for bitwise comparison
/// (index 0 is the serial reference).
template <typename Fn>
auto serial_and_parallel(Fn&& make_result) {
  const std::size_t saved = common::default_jobs();
  common::set_default_jobs(1);
  auto serial = make_result();
  common::set_default_jobs(2);
  auto parallel_2 = make_result();
  common::set_default_jobs(8);
  auto parallel_8 = make_result();
  auto parallel_8_repeat = make_result();
  common::set_default_jobs(saved);
  return std::array{std::move(serial), std::move(parallel_2),
                    std::move(parallel_8), std::move(parallel_8_repeat)};
}

TEST(Determinism, MeasureKernelBitIdenticalAcrossJobs) {
  // The per-sample loop uses counter-based streams (index_seed(seed, i)),
  // so the whole campaign — every sample and the reduced moments — must be
  // bit-identical at every --jobs count.
  for (const apps::KernelPtr& kernel : apps::table2_kernels()) {
    const auto results = serial_and_parallel(
        [&] { return apps::measure_kernel(*kernel, 150, 2024); });
    for (std::size_t r = 1; r < results.size(); ++r) {
      EXPECT_EQ(results[0].samples, results[r].samples) << kernel->name();
      EXPECT_EQ(results[0].acet, results[r].acet) << kernel->name();
      EXPECT_EQ(results[0].sigma, results[r].sigma) << kernel->name();
      EXPECT_EQ(results[0].observed_max, results[r].observed_max)
          << kernel->name();
      EXPECT_EQ(results[0].wcet_pes, results[r].wcet_pes) << kernel->name();
    }
  }
}

TEST(Determinism, ChunkedDispatchMatchesUnchunkedAtEveryGrain) {
  // Chunking is a pure dispatch optimization: for a stream-per-index
  // workload the results must be bit-identical to grain-1 dispatch for
  // every grain (including auto) and every job count.
  auto item = [](std::size_t i) {
    common::Rng rng(common::index_seed(99, i));
    double acc = 0.0;
    for (int k = 0; k < 50; ++k) acc += rng.uniform01();
    return acc;
  };
  std::vector<double> reference;
  {
    const std::size_t saved = common::default_jobs();
    common::set_default_jobs(1);
    reference = common::parallel_map(257, item);
    common::set_default_jobs(saved);
  }
  for (const std::size_t jobs : {2U, 8U}) {
    const std::size_t saved = common::default_jobs();
    common::set_default_jobs(jobs);
    for (const std::size_t grain : {0U, 1U, 3U, 64U, 500U}) {
      const std::vector<double> chunked =
          common::parallel_map_chunked(257, grain, item);
      ASSERT_EQ(chunked.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(chunked[i], reference[i])
            << "jobs=" << jobs << " grain=" << grain << " i=" << i;
    }
    common::set_default_jobs(saved);
  }
}

class Rosenbrock final : public ga::Problem {
 public:
  [[nodiscard]] std::size_t dimension() const override { return 4; }
  [[nodiscard]] double lower_bound(std::size_t) const override { return -2.0; }
  [[nodiscard]] double upper_bound(std::size_t) const override { return 2.0; }
  [[nodiscard]] double evaluate(std::span<const double> g) const override {
    double s = 0.0;
    for (std::size_t i = 0; i + 1 < g.size(); ++i) {
      const double a = g[i + 1] - g[i] * g[i];
      const double b = 1.0 - g[i];
      s -= 100.0 * a * a + b * b;
    }
    return s;
  }
};

TEST(Determinism, RunGaBitIdenticalAcrossJobs) {
  const Rosenbrock problem;
  ga::GaConfig config;
  config.population_size = 20;
  config.generations = 25;
  config.elitism = 2;
  config.seed = 123;
  const auto results =
      serial_and_parallel([&] { return ga::run_ga(problem, config); });
  for (std::size_t r = 1; r < results.size(); ++r) {
    EXPECT_EQ(results[0].best.genes, results[r].best.genes);
    EXPECT_EQ(results[0].best.fitness, results[r].best.fitness);
    EXPECT_EQ(results[0].evaluations, results[r].evaluations);
    ASSERT_EQ(results[0].history.size(), results[r].history.size());
    for (std::size_t g = 0; g < results[0].history.size(); ++g) {
      EXPECT_EQ(results[0].history[g].best, results[r].history[g].best);
      EXPECT_EQ(results[0].history[g].mean, results[r].history[g].mean);
      EXPECT_EQ(results[0].history[g].worst, results[r].history[g].worst);
    }
  }
}

TEST(Determinism, ComparePoliciesBitIdenticalAcrossJobs) {
  core::OptimizerConfig opt;
  opt.ga.population_size = 10;
  opt.ga.generations = 6;
  const auto results = serial_and_parallel(
      [&] { return core::compare_policies(0.6, 5, 17, opt); });
  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[0].size(), results[r].size());
    for (std::size_t p = 0; p < results[0].size(); ++p) {
      EXPECT_EQ(results[0][p].policy, results[r][p].policy);
      EXPECT_EQ(results[0][p].p_ms, results[r][p].p_ms);
      EXPECT_EQ(results[0][p].max_u_lc, results[r][p].max_u_lc);
      EXPECT_EQ(results[0][p].objective, results[r][p].objective);
      EXPECT_EQ(results[0][p].feasible_fraction,
                results[r][p].feasible_fraction);
    }
  }
}

TEST(Determinism, AcceptanceRatioBitIdenticalAcrossJobs) {
  for (const auto approach :
       {core::Approach::kBaruahLambda, core::Approach::kLiuChebyshev}) {
    const auto results = serial_and_parallel([&] {
      return core::acceptance_ratio(approach, 0.9, 60, 23);
    });
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[0], results[2]);
  }
}

TEST(Determinism, Fig3BitIdenticalAcrossJobs) {
  const auto results = serial_and_parallel(
      [&] { return exp::run_fig3({5.0, 15.0}, {0.5, 0.7}, 25, 31); });
  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[0].cells.size(), results[r].cells.size());
    for (std::size_t c = 0; c < results[0].cells.size(); ++c) {
      EXPECT_EQ(results[0].cells[c].mean_p_ms, results[r].cells[c].mean_p_ms);
      EXPECT_EQ(results[0].cells[c].mean_max_u_lc,
                results[r].cells[c].mean_max_u_lc);
      EXPECT_EQ(results[0].cells[c].mean_objective,
                results[r].cells[c].mean_objective);
    }
  }
}

TEST(Determinism, Fig6BitIdenticalAcrossJobs) {
  const auto results =
      serial_and_parallel([&] { return exp::run_fig6({0.8, 1.1}, 40, 37); });
  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[0].size(), results[r].size());
    for (std::size_t p = 0; p < results[0].size(); ++p) {
      EXPECT_EQ(results[0][p].baruah_lambda, results[r][p].baruah_lambda);
      EXPECT_EQ(results[0][p].baruah_chebyshev,
                results[r][p].baruah_chebyshev);
      EXPECT_EQ(results[0][p].liu_lambda, results[r][p].liu_lambda);
      EXPECT_EQ(results[0][p].liu_chebyshev, results[r][p].liu_chebyshev);
    }
  }
}

TEST(Determinism, Table1BitIdenticalAcrossJobs) {
  const auto results =
      serial_and_parallel([&] { return exp::run_table1(60, 41, 200); });
  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[0].size(), results[r].size());
    for (std::size_t k = 0; k < results[0].size(); ++k) {
      EXPECT_EQ(results[0][k].application, results[r][k].application);
      EXPECT_EQ(results[0][k].acet, results[r][k].acet);
      EXPECT_EQ(results[0][k].sigma, results[r][k].sigma);
      EXPECT_EQ(results[0][k].overrun_at_acet, results[r][k].overrun_at_acet);
    }
  }
}

TEST(Determinism, Table2BitIdenticalAcrossJobs) {
  const auto results =
      serial_and_parallel([&] { return exp::run_table2(80, 43); });
  for (std::size_t r = 1; r < results.size(); ++r) {
    EXPECT_EQ(results[0].applications, results[r].applications);
    ASSERT_EQ(results[0].rows.size(), results[r].rows.size());
    for (std::size_t n = 0; n < results[0].rows.size(); ++n)
      EXPECT_EQ(results[0].rows[n].measured, results[r].rows[n].measured);
  }
}

TEST(Determinism, MulticoreBitIdenticalAcrossJobs) {
  const auto results = serial_and_parallel(
      [&] { return exp::run_multicore({2, 4}, {0.9}, 20, 47); });
  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[0].size(), results[r].size());
    for (std::size_t p = 0; p < results[0].size(); ++p) {
      EXPECT_EQ(results[0][p].lambda_acceptance,
                results[r][p].lambda_acceptance);
      EXPECT_EQ(results[0][p].chebyshev_acceptance,
                results[r][p].chebyshev_acceptance);
    }
  }
}

TEST(Determinism, GaVsUniformBitIdenticalAcrossJobs) {
  core::OptimizerConfig opt;
  opt.ga.population_size = 10;
  opt.ga.generations = 6;
  const auto results = serial_and_parallel(
      [&] { return exp::run_ga_vs_uniform({0.6}, 4, 53, opt); });
  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[0].size(), results[r].size());
    EXPECT_EQ(results[0][0].uniform_objective, results[r][0].uniform_objective);
    EXPECT_EQ(results[0][0].ga_objective, results[r][0].ga_objective);
    EXPECT_EQ(results[0][0].ga_gaussian_objective,
              results[r][0].ga_gaussian_objective);
    EXPECT_EQ(results[0][0].mean_gain, results[r][0].mean_gain);
  }
}

TEST(Determinism, AssignmentMethodsBitIdenticalAcrossJobs) {
  // Each kernel owns a counter-based policy stream (index_seed(seed, k))
  // and a value-derived measurement seed, so the parallelized kernel loop
  // must reproduce the sequential numbers bit-for-bit — including the
  // shard backend, whose slices are checked against the full run.
  const auto results = serial_and_parallel(
      [&] { return exp::run_assignment_methods(300, 67); });
  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[0].size(), results[r].size());
    for (std::size_t k = 0; k < results[0].size(); ++k) {
      EXPECT_EQ(results[0][k].application, results[r][k].application);
      EXPECT_EQ(results[0][k].acet, results[r][k].acet);
      EXPECT_EQ(results[0][k].sigma, results[r][k].sigma);
      EXPECT_EQ(results[0][k].representative, results[r][k].representative);
      ASSERT_EQ(results[0][k].methods.size(), results[r][k].methods.size());
      for (std::size_t m = 0; m < results[0][k].methods.size(); ++m) {
        EXPECT_EQ(results[0][k].methods[m].wcet_opt,
                  results[r][k].methods[m].wcet_opt);
        EXPECT_EQ(results[0][k].methods[m].holdout_overrun,
                  results[r][k].methods[m].holdout_overrun);
        EXPECT_EQ(results[0][k].methods[m].utilization_cost,
                  results[r][k].methods[m].utilization_cost);
      }
    }
  }
  // Shard backend: concatenating both shards' comparisons equals the
  // unsharded list.
  std::vector<exp::AssignmentComparison> stitched;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto part = exp::run_assignment_methods(
        300, 67, common::Executor(common::Shard{i, 2}));
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  ASSERT_EQ(stitched.size(), results[0].size());
  for (std::size_t k = 0; k < stitched.size(); ++k) {
    EXPECT_EQ(stitched[k].application, results[0][k].application);
    ASSERT_EQ(stitched[k].methods.size(), results[0][k].methods.size());
    for (std::size_t m = 0; m < stitched[k].methods.size(); ++m)
      EXPECT_EQ(stitched[k].methods[m].wcet_opt,
                results[0][k].methods[m].wcet_opt);
  }
}

}  // namespace
}  // namespace mcs
