// Extension E3 (beyond the paper): the paper claims its C^LO scheme "can
// be applied to any scheduling algorithm with any policy of task
// execution". This bench quantifies that for the second classic MC
// scheduler family: fixed-priority AMC-rtb (Baruah/Burns/Davis) next to
// EDF-VD, both with and without the Chebyshev assignment.
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"
#include "sched/amc.hpp"
#include "sched/edf_vd.hpp"
#include "taskgen/generator.hpp"

int main(int argc, char** argv) {
  std::uint64_t tasksets = 300;
  std::uint64_t seed = 41;
  mcs::common::Cli cli(
      "Extension E3: AMC-rtb vs EDF-VD acceptance, with and without the "
      "Chebyshev C^LO assignment");
  cli.add_u64("tasksets", &tasksets, "task sets per utilization point");
  cli.add_u64("seed", &seed, "PRNG seed");
  if (!cli.parse(argc, argv)) return 1;

  mcs::common::Table table({"U_bound", "AMC-DM (no optimism)",
                            "AMC-DM + scheme", "AMC-OPA + scheme",
                            "EDF-VD (no optimism)", "EDF-VD + scheme"});
  table.set_title("Extension E3: acceptance ratio per scheduler and C^LO "
                  "assignment");

  mcs::taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  for (const double u : {0.7, 0.8, 0.9, 1.0, 1.1, 1.2}) {
    const std::uint64_t base = seed + static_cast<std::uint64_t>(u * 100.0);
    std::size_t amc_plain = 0;
    std::size_t amc_scheme = 0;
    std::size_t opa_scheme = 0;
    std::size_t edf_plain = 0;
    std::size_t edf_scheme = 0;
    for (std::uint64_t t = 0; t < tasksets; ++t) {
      mcs::common::Rng set_rng(mcs::common::index_seed(base, t));
      const mcs::mc::TaskSet vestal =
          mcs::taskgen::generate_mixed(config, u, set_rng);
      mcs::mc::TaskSet assigned = vestal;
      const std::size_t hc =
          assigned.count(mcs::mc::Criticality::kHigh);
      (void)mcs::core::apply_chebyshev_assignment(
          assigned, std::vector<double>(hc, 3.0));
      if (mcs::sched::amc_rtb_test(vestal).schedulable) ++amc_plain;
      if (mcs::sched::amc_rtb_test(assigned).schedulable) ++amc_scheme;
      if (mcs::sched::amc_opa_test(assigned).schedulable) ++opa_scheme;
      if (mcs::sched::edf_vd_test(vestal).schedulable) ++edf_plain;
      if (mcs::sched::edf_vd_test(assigned).schedulable) ++edf_scheme;
    }
    const auto pct = [&](std::size_t n) {
      return mcs::common::format_percent(static_cast<double>(n) /
                                         static_cast<double>(tasksets));
    };
    table.add_row({mcs::common::format_double(u, 3), pct(amc_plain),
                   pct(amc_scheme), pct(opa_scheme), pct(edf_plain),
                   pct(edf_scheme)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nReading: the Chebyshev assignment lifts BOTH scheduler "
            "families; Audsley's OPA dominates deadline-monotonic under "
            "the same analysis, and EDF-VD dominates fixed priorities, as "
            "theory predicts.");
  std::puts("\nCSV:");
  std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
