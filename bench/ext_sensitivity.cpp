// Extension E2 (beyond the paper): how gracefully do the scheme's
// guarantees degrade when the measured ACET/sigma are wrong? For a
// GA-optimized task set, every task's true moments are perturbed by
// +/- e and the realized Eq. 10 bound is recomputed. Because Chebyshev is
// distribution-free, the degradation is fully analytic — no hidden tail
// assumption can break (the contrast with pWCET methods from Section II).
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"
#include "core/optimizer.hpp"
#include "core/sensitivity.hpp"
#include "taskgen/generator.hpp"

int main(int argc, char** argv) {
  std::uint64_t tasksets = 50;
  std::uint64_t seed = 37;
  double utilization = 0.6;
  mcs::common::Cli cli(
      "Extension E2: sensitivity of the Eq. 10 bound to ACET/sigma "
      "measurement error");
  cli.add_u64("tasksets", &tasksets, "task sets to average over");
  cli.add_u64("seed", &seed, "PRNG seed");
  cli.add_double("utilization", &utilization, "U_HC^HI of the task sets");
  if (!cli.parse(argc, argv)) return 1;

  const std::vector<double> errors = {-0.2, -0.1, -0.05, 0.0,
                                      0.05, 0.1,  0.2};
  std::vector<double> designed(errors.size(), 0.0);
  std::vector<double> realized(errors.size(), 0.0);
  std::vector<double> preserved(errors.size(), 0.0);

  const mcs::taskgen::GeneratorConfig config;
  std::size_t used = 0;
  for (std::size_t t = 0; t < tasksets; ++t) {
    mcs::common::Rng set_rng(mcs::common::index_seed(seed, t));
    mcs::mc::TaskSet tasks =
        mcs::taskgen::generate_hc_only(config, utilization, set_rng);
    mcs::core::OptimizerConfig opt;
    opt.ga.population_size = 30;
    opt.ga.generations = 30;
    opt.ga.seed = set_rng();
    const auto best = mcs::core::optimize_multipliers_ga(tasks, opt);
    if (!best.breakdown.feasible) continue;
    (void)mcs::core::apply_chebyshev_assignment(tasks, best.n);
    const auto points = mcs::core::analyze_sensitivity(tasks, errors);
    for (std::size_t e = 0; e < errors.size(); ++e) {
      designed[e] += points[e].designed_p_ms;
      realized[e] += points[e].realized_p_ms;
      preserved[e] += points[e].schedulability_preserved ? 1.0 : 0.0;
    }
    ++used;
  }
  if (used == 0) {
    std::puts("no feasible task set generated");
    return 1;
  }

  mcs::common::Table table({"moment error", "designed P_sys^MS",
                            "realized P_sys^MS", "Eq.8 preserved"});
  table.set_title("Extension E2: Eq. 10 bound under ACET/sigma estimation "
                  "error (mean over " + std::to_string(used) + " sets at "
                  "U_HC^HI = " + mcs::common::format_double(utilization, 3) +
                  ")");
  for (std::size_t e = 0; e < errors.size(); ++e) {
    table.add_row({mcs::common::format_percent(errors[e], 0),
                   mcs::common::format_percent(designed[e] / double(used)),
                   mcs::common::format_percent(realized[e] / double(used)),
                   mcs::common::format_percent(preserved[e] / double(used))});
  }
  std::fputs(table.render().c_str(), stdout);

  std::puts("\nReading: underestimating the moments (positive error) "
            "raises the realized switch probability smoothly; the "
            "schedulability conditions themselves depend only on the "
            "frozen budgets and stay intact.");
  std::puts("\nCSV:");
  std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
