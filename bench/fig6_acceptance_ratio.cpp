// Reproduces Fig. 6: acceptance ratio (fraction of schedulable random
// task sets) vs. utilization bound for Baruah [1] and Liu [2], each with
// and without the proposed Chebyshev scheme.
#include <cstdio>

#include "common/cli.hpp"
#include "common/csv_merge.hpp"
#include "common/executor.hpp"
#include "common/table.hpp"
#include "exp/fig6.hpp"
#include "exp/shootout.hpp"

int main(int argc, char** argv) {
  std::uint64_t tasksets = 300;
  std::uint64_t seed = 11;
  bool csv_only = false;
  std::string out_path;
  std::string policy_specs;
  std::string admission = "utilization";
  double target_p = 0.1;
  mcs::common::Shard shard;
  mcs::common::Cli cli(
      "Fig. 6 reproduction: acceptance ratio per approach across U_bound "
      "(use --tasksets=1000 for paper scale)");
  cli.add_u64("tasksets", &tasksets, "task sets per point (paper: 1000)");
  cli.add_u64("seed", &seed, "PRNG seed");
  cli.add_string("policy", &policy_specs,
                 "run the policy-family shoot-out instead of the paper's "
                 "four approaches: comma-separated C^LO policy specs "
                 "(vp_n_sigma, gauss_n_sigma, cantelli_n_sigma, "
                 "median_k_mad, iqr_whisker, ...)");
  cli.add_string("admission", &admission,
                 "schedulability backend for --policy mode: utilization "
                 "(Eq. 8) or demand (deadline-tightening search)");
  cli.add_double("target-p", &target_p,
                 "exceedance target of the concentration-bound policies");
  cli.add_flag("csv", &csv_only,
               "emit only the CSV block (implied by --shard)");
  cli.add_shard(&shard);
  cli.add_output(&out_path);
  cli.add_jobs();
  if (!cli.parse(argc, argv)) return 1;
  if (shard.active() || !out_path.empty()) csv_only = true;

  const std::vector<double> u_values = {0.5,  0.6,  0.7,  0.8,  0.9,
                                        1.0,  1.1,  1.2,  1.3,  1.4};

  if (!policy_specs.empty()) {
    mcs::sched::PolicyFactoryOptions policy_options;
    policy_options.target_p = target_p;
    mcs::common::Table shootout({""});
    try {
      const auto policies =
          mcs::exp::make_synthetic_policy_list(policy_specs, policy_options);
      const auto result = mcs::exp::run_shootout_acceptance(
          policies, mcs::core::parse_admission_backend(admission), u_values,
          tasksets, seed, mcs::common::Executor(shard));
      shootout = mcs::exp::render_shootout_acceptance(result);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    if (csv_only) return mcs::common::emit_csv(out_path, shootout.render_csv());
    std::fputs(shootout.render().c_str(), stdout);
    std::puts("\nCSV:");
    std::fputs(shootout.render_csv().c_str(), stdout);
    return 0;
  }

  const auto points = mcs::exp::run_fig6(u_values, tasksets, seed,
                                         mcs::common::Executor(shard));
  const mcs::common::Table table = mcs::exp::render_fig6(points);
  if (csv_only) return mcs::common::emit_csv(out_path, table.render_csv());
  std::fputs(table.render().c_str(), stdout);

  std::puts("\nExpected shape (paper Section V-D): everything is "
            "schedulable at low bounds; as U_bound grows the lambda "
            "baselines collapse first while the proposed scheme keeps "
            "accepting task sets.");
  std::puts("\nCSV:");
  std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
