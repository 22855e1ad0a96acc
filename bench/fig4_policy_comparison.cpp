// Reproduces Fig. 4: the proposed GA scheme versus the WCET^pes-fraction
// baselines ([1], [4], [9]) and the ACET policy — P_sys^MS and
// max(U_LC^LO) across HC utilizations.
#include <cstdio>

#include "common/cli.hpp"
#include "common/csv_merge.hpp"
#include "common/executor.hpp"
#include "common/table.hpp"
#include "exp/policy_sweep.hpp"
#include "exp/shootout.hpp"

int main(int argc, char** argv) {
  std::uint64_t tasksets = 25;
  std::uint64_t seed = 7;
  std::uint64_t ga_population = 40;
  std::uint64_t ga_generations = 50;
  bool csv_only = false;
  std::string out_path;
  std::string policy_specs;
  double target_p = 0.1;
  mcs::common::Shard shard;
  mcs::common::Cli cli(
      "Fig. 4 reproduction: P_sys^MS and max(U_LC^LO) per policy across "
      "U_HC^HI (use --tasksets=1000 for paper scale)");
  cli.add_u64("tasksets", &tasksets, "task sets per point (paper: 1000)");
  cli.add_u64("seed", &seed, "PRNG seed");
  cli.add_u64("ga-population", &ga_population, "GA population size");
  cli.add_u64("ga-generations", &ga_generations, "GA generations");
  cli.add_string("policy", &policy_specs,
                 "comma-separated extra C^LO policies appended to the "
                 "roster (vp_n_sigma, gauss_n_sigma, cantelli_n_sigma, "
                 "median_k_mad, iqr_whisker, ...)");
  cli.add_double("target-p", &target_p,
                 "exceedance target of the concentration-bound policies");
  cli.add_flag("csv", &csv_only,
               "emit only the CSV block (implied by --shard)");
  cli.add_shard(&shard);
  cli.add_output(&out_path);
  cli.add_jobs();
  if (!cli.parse(argc, argv)) return 1;
  if (shard.active() || !out_path.empty()) csv_only = true;

  mcs::sched::PolicyFactoryOptions policy_options;
  policy_options.target_p = target_p;
  std::vector<mcs::sched::WcetOptPolicyPtr> extra_policies;
  try {
    extra_policies =
        mcs::exp::make_synthetic_policy_list(policy_specs, policy_options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  mcs::core::OptimizerConfig optimizer;
  optimizer.ga.population_size = ga_population;
  optimizer.ga.generations = ga_generations;
  const std::vector<double> u_values = {0.4, 0.5, 0.6, 0.7, 0.8};
  const auto points = mcs::exp::run_policy_sweep(
      u_values, tasksets, seed, optimizer, mcs::common::Executor(shard),
      extra_policies);
  const mcs::common::Table table = mcs::exp::render_fig4(points);
  if (csv_only) return mcs::common::emit_csv(out_path, table.render_csv());
  std::fputs(table.render().c_str(), stdout);

  std::puts("\nCSV:");
  std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
