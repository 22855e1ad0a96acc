// Extension E4 (beyond the paper): how the HI->LO back-switch rule shapes
// runtime behaviour. The paper switches back "if there is no ready HC
// task" (Section III); procrastinating until a full idle instant
// ([22]-style) is safer for re-switch churn but keeps LC tasks degraded
// longer. Same GA-optimized task sets, both rules, measured in the
// discrete-event simulator.
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"
#include "core/optimizer.hpp"
#include "sched/edf_vd.hpp"
#include "sim/engine.hpp"
#include "taskgen/generator.hpp"
#include "taskgen/uunifast.hpp"

namespace {

void add_lc_fill(mcs::mc::TaskSet& tasks, double target,
                 mcs::common::Rng& rng) {
  if (target <= 1e-6) return;
  const auto count = std::max<std::size_t>(
      1, static_cast<std::size_t>(target / 0.15 + 0.5));
  const auto utils = mcs::taskgen::uunifast(count, target, rng);
  for (std::size_t i = 0; i < utils.size(); ++i) {
    const double period = rng.uniform(100.0, 900.0);
    tasks.add(mcs::mc::McTask::low("lc" + std::to_string(i),
                                   std::max(1e-6, utils[i] * period),
                                   period));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t tasksets = 15;
  std::uint64_t seed = 43;
  double horizon = 300000.0;
  double n_cap = 2.0;
  mcs::common::Cli cli(
      "Extension E4: back-switch rule comparison (no-ready-HC vs "
      "idle-instant) under identical Chebyshev assignments");
  cli.add_u64("tasksets", &tasksets, "task sets per utilization point");
  cli.add_u64("seed", &seed, "PRNG seed");
  cli.add_double("horizon", &horizon, "simulated time per run (ms)");
  cli.add_double("n-cap", &n_cap,
                 "multiplier cap: small values (stress) force frequent "
                 "overruns so the back-switch rules are actually exercised");
  if (!cli.parse(argc, argv)) return 1;

  mcs::common::Table table({"U_HC^HI", "rule", "mode switches/s",
                            "HI-mode time", "LC drop rate", "HC misses"});
  table.set_title("Extension E4: HI->LO back-switch policies");

  const mcs::taskgen::GeneratorConfig config;
  for (const double u : {0.4, 0.6, 0.8}) {
    const std::uint64_t base = seed + static_cast<std::uint64_t>(u * 100.0);
    double switches[2] = {0, 0};
    double hi_time[2] = {0, 0};
    double drops[2] = {0, 0};
    double misses[2] = {0, 0};
    std::size_t used = 0;
    for (std::uint64_t t = 0; t < tasksets; ++t) {
      mcs::common::Rng set_rng(mcs::common::index_seed(base, t));
      mcs::mc::TaskSet tasks =
          mcs::taskgen::generate_hc_only(config, u, set_rng);
      mcs::core::OptimizerConfig opt;
      opt.ga.population_size = 30;
      opt.ga.generations = 30;
      opt.ga.seed = set_rng();
      opt.n_cap = n_cap;
      const auto best = mcs::core::optimize_multipliers_ga(tasks, opt);
      if (!best.breakdown.feasible) continue;
      (void)mcs::core::apply_chebyshev_assignment(tasks, best.n);
      add_lc_fill(tasks, 0.9 * best.breakdown.max_u_lc, set_rng);
      const auto vd = mcs::sched::edf_vd_test(tasks);
      if (!vd.schedulable) continue;
      ++used;
      mcs::sim::SimConfig sim_config;
      sim_config.horizon = horizon;
      sim_config.x = vd.x;
      sim_config.lc_policy = mcs::sim::LcPolicy::kDegradeHalf;
      sim_config.seed = set_rng();
      const mcs::sim::BackSwitchPolicy rules[2] = {
          mcs::sim::BackSwitchPolicy::kNoReadyHc,
          mcs::sim::BackSwitchPolicy::kIdleInstant};
      for (int r = 0; r < 2; ++r) {
        sim_config.back_switch = rules[r];
        const auto result = mcs::sim::simulate(tasks, sim_config);
        switches[r] += static_cast<double>(result.metrics.mode_switches) /
                       (horizon / 1000.0);
        hi_time[r] += result.metrics.hi_mode_fraction();
        drops[r] += result.metrics.lc_drop_rate();
        misses[r] += static_cast<double>(result.metrics.hc_deadline_misses);
      }
    }
    if (used == 0) continue;
    const char* names[2] = {"no-ready-HC (paper)", "idle-instant"};
    for (int r = 0; r < 2; ++r) {
      table.add_row({mcs::common::format_double(u, 3), names[r],
                     mcs::common::format_double(
                         switches[r] / static_cast<double>(used), 4),
                     mcs::common::format_percent(
                         hi_time[r] / static_cast<double>(used)),
                     mcs::common::format_percent(
                         drops[r] / static_cast<double>(used)),
                     mcs::common::format_double(
                         misses[r] / static_cast<double>(used), 3)});
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nInvariant: HC misses = 0 under both rules; idle-instant "
            "spends at least as much time in HI mode.");
  std::puts("\nCSV:");
  std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
