// Island-GA benchmark on a large (~100 HC task) Eq. 13 multiplier-
// optimization instance, in two rows:
//
//  1. "single"  — the single-population search: the island engine at
//     plan {1 island, interval 0}, which is ga::run_ga.
//  2. "islands" — the full island model (default 4 islands, ring
//     migration every 5 generations): more total search at the same
//     per-island budget, reported for objective context rather than as a
//     like-for-like timing row.
//
// Each row reports wall time, fitness calls and the winner's objective.
// Two objective modes pick the fitness-call cost regime:
//   --objective=demand   (default) — Eq. 13 gated by the deadline-
//     tightening demand grid search (sched::edf_vd_demand_search) over
//     the candidate assignment: the search dominates each fitness call.
//   --objective=analytic — the bare Eq. 13 closed form (~2 us/call), where
//     the engine's own bookkeeping shows.
//
// --json writes the rows as a CI artifact (see .github/workflows/ci.yml).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/chebyshev_wcet.hpp"
#include "core/objective.hpp"
#include "core/optimizer.hpp"
#include "ga/islands.hpp"
#include "mc/taskset.hpp"
#include "sched/demand_vd.hpp"
#include "taskgen/generator.hpp"

namespace {

/// Eq. 13 objective gated by the demand grid search: a candidate scores
/// its analytic objective only if the assigned task set also passes
/// sched::edf_vd_demand_search (the PR-8 demand backend without the
/// implicit-deadline Eq. 8 shortcut). Each call copies the task set and
/// scans the demand grid, so fitness dominates the GA bookkeeping.
class DemandGatedProblem final : public mcs::ga::Problem {
 public:
  DemandGatedProblem(const mcs::mc::TaskSet& tasks,
                     const mcs::ga::Problem& bounds)
      : tasks_(tasks), bounds_(bounds) {}

  [[nodiscard]] std::size_t dimension() const override {
    return bounds_.dimension();
  }
  [[nodiscard]] double lower_bound(std::size_t i) const override {
    return bounds_.lower_bound(i);
  }
  [[nodiscard]] double upper_bound(std::size_t i) const override {
    return bounds_.upper_bound(i);
  }
  [[nodiscard]] double evaluate(std::span<const double> genes) const override {
    const mcs::core::ObjectiveBreakdown breakdown =
        mcs::core::evaluate_multipliers(tasks_, genes);
    if (!breakdown.feasible) return 0.0;
    mcs::mc::TaskSet assigned = tasks_;
    mcs::core::apply_chebyshev_assignment(assigned, genes);
    return mcs::sched::edf_vd_demand_search(assigned).schedulable
               ? breakdown.objective
               : 0.0;
  }

 private:
  const mcs::mc::TaskSet& tasks_;
  const mcs::ga::Problem& bounds_;
};

using Clock = std::chrono::steady_clock;

struct RunRow {
  std::string mode;
  double wall_ms = 0.0;
  std::size_t evaluations = 0;  ///< actual Problem::evaluate calls
  double objective = 0.0;
};

std::string format_fixed(double value, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string render_json(const std::vector<RunRow>& rows) {
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"perf_ga_islands\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunRow& r = rows[i];
    out << "    {\"mode\": \"" << r.mode << "\", \"wall_ms\": " << r.wall_ms
        << ", \"evaluations\": " << r.evaluations
        << ", \"objective\": " << r.objective << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 11;
  std::uint64_t population = 48;
  std::uint64_t generations = 60;
  std::uint64_t islands = 4;
  std::uint64_t migration_interval = 5;
  std::uint64_t migrants = 2;
  std::string objective_mode = "demand";
  std::string json_path;
  mcs::common::Cli cli(
      "Island-GA benchmark: run_ga vs. the island model on a ~100-HC-task "
      "multiplier optimization");
  cli.add_u64("seed", &seed, "PRNG seed (task set and GA)");
  cli.add_u64("population", &population, "GA population size (per island)");
  cli.add_u64("generations", &generations, "GA generations");
  cli.add_u64("islands", &islands, "island count for the full-model row");
  cli.add_u64("migration-interval", &migration_interval,
              "generations between ring migrations in the full-model row");
  cli.add_u64("migrants", &migrants, "top-K exchanged per migration");
  cli.add_string("objective", &objective_mode,
                 "fitness cost regime: demand (Eq. 13 gated by the demand "
                 "grid search) or analytic (bare Eq. 13)");
  cli.add_string("json", &json_path,
                 "also write the results as JSON to this path (CI artifact)");
  cli.add_jobs();
  if (!cli.parse(argc, argv)) return 1;

  // ~100 HC tasks: mean per-task HI utilization 0.008 at total 0.8.
  mcs::taskgen::GeneratorConfig gen;
  gen.task_util_min = 0.004;
  gen.task_util_max = 0.012;
  mcs::common::Rng rng(seed);
  const mcs::mc::TaskSet tasks =
      mcs::taskgen::generate_hc_only(gen, 0.8, rng);
  std::printf("task set: %zu HC tasks (u_hc_hi = 0.8), genome dimension %zu\n",
              tasks.size(), tasks.size());

  mcs::ga::GaConfig ga;
  ga.population_size = static_cast<std::size_t>(population);
  ga.generations = static_cast<std::size_t>(generations);
  ga.seed = seed;
  const auto multiplier_problem = mcs::core::make_multiplier_problem(tasks);
  if (objective_mode != "demand" && objective_mode != "analytic") {
    std::fprintf(stderr, "perf_ga_islands: unknown --objective '%s'\n",
                 objective_mode.c_str());
    return 1;
  }
  const DemandGatedProblem demand_problem(tasks, *multiplier_problem);
  const mcs::ga::Problem& problem =
      objective_mode == "demand"
          ? static_cast<const mcs::ga::Problem&>(demand_problem)
          : *multiplier_problem;
  std::printf("objective mode: %s\n", objective_mode.c_str());

  const auto run_row = [&](const char* mode, const mcs::ga::IslandPlan& plan) {
    mcs::ga::IslandGaConfig config;
    config.ga = ga;
    config.plan = plan;
    const Clock::time_point t0 = Clock::now();
    const mcs::ga::IslandGaResult result =
        mcs::ga::run_island_ga(problem, config);
    RunRow row;
    row.mode = mode;
    row.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    row.evaluations = result.stats.evaluations;
    row.objective = mcs::ga::run_winner(config, result).fitness;
    return row;
  };
  // Plan {1, 0} is run_ga; the island row runs the configured plan.
  const std::vector<RunRow> rows = {
      run_row("single", {1, 0, 0}),
      run_row("islands", {static_cast<std::size_t>(islands),
                          static_cast<std::size_t>(migration_interval),
                          static_cast<std::size_t>(migrants)})};

  mcs::common::Table table({"mode", "wall (ms)", "fitness calls",
                            "objective"});
  table.set_title("island-GA benchmark (" + std::to_string(tasks.size()) +
                  " HC tasks, population " + std::to_string(population) +
                  ", " + std::to_string(generations) + " generations)");
  for (const RunRow& r : rows)
    table.add_row({r.mode, format_fixed(r.wall_ms, 1),
                   std::to_string(r.evaluations),
                   format_fixed(r.objective, 6)});
  std::fputs(table.render().c_str(), stdout);

  if (!json_path.empty()) {
    std::ofstream json_out(json_path);
    json_out << render_json(rows);
    std::printf("JSON written to %s\n", json_path.c_str());
  }
  return 0;
}
