#include "exp/fig3.hpp"

#include "common/thread_pool.hpp"
#include "core/objective.hpp"
#include "taskgen/generator.hpp"

namespace mcs::exp {

namespace {

/// Evaluates one (n, u) grid cell: `tasksets` replications, set i drawn
/// from its own index_seed stream; the means are reduced in replication
/// order, bit-identical at any --jobs.
Fig3Cell evaluate_cell(double n, double u, std::size_t tasksets,
                       std::uint64_t seed,
                       const taskgen::GeneratorConfig& config) {
  // Same base seed per u-column so every n sees the same task-set sample.
  const std::uint64_t base = seed + static_cast<std::uint64_t>(u * 1000.0);
  Fig3Cell cell;
  cell.n = n;
  cell.u_hc_hi = u;
  const std::vector<core::ObjectiveBreakdown> breakdowns =
      common::parallel_map(tasksets, [&](std::size_t i) {
        common::Rng set_rng(common::index_seed(base, i));
        const mc::TaskSet tasks = taskgen::generate_hc_only(config, u, set_rng);
        const std::vector<double> genes(tasks.count(mc::Criticality::kHigh),
                                        n);
        return core::evaluate_multipliers(tasks, genes);
      });
  for (const core::ObjectiveBreakdown& b : breakdowns) {
    cell.mean_p_ms += b.p_ms;
    cell.mean_max_u_lc += b.max_u_lc;
    cell.mean_objective += b.objective;
  }
  const auto denom = static_cast<double>(tasksets);
  cell.mean_p_ms /= denom;
  cell.mean_max_u_lc /= denom;
  cell.mean_objective /= denom;
  return cell;
}

}  // namespace

Fig3Data run_fig3(const std::vector<double>& n_values,
                  const std::vector<double>& u_values, std::size_t tasksets,
                  std::uint64_t seed, const common::Executor& exec) {
  Fig3Data data;
  data.n_values = n_values;
  data.u_values = u_values;
  const taskgen::GeneratorConfig config;
  // Row-major flattening of the (n, u) grid; each cell is self-seeded so
  // a sharded executor can evaluate any contiguous slice independently.
  const auto [begin, end] = exec.range(n_values.size() * u_values.size());
  data.cells.reserve(end - begin);
  for (std::size_t c = begin; c < end; ++c) {
    const double n = n_values[c / u_values.size()];
    const double u = u_values[c % u_values.size()];
    data.cells.push_back(evaluate_cell(n, u, tasksets, seed, config));
  }
  return data;
}

common::Table render_fig3(const Fig3Data& data) {
  common::Table table({"n", "U_HC^HI", "P_sys^MS (3a)", "max(U_LC^LO) (3b)",
                       "product (3c)"});
  table.set_title(
      "Fig. 3: effect of n and HC utilization on mode switching and LC "
      "utilization");
  for (const Fig3Cell& cell : data.cells) {
    table.add_row({common::format_double(cell.n, 4),
                   common::format_double(cell.u_hc_hi, 3),
                   common::format_double(cell.mean_p_ms, 4),
                   common::format_double(cell.mean_max_u_lc, 4),
                   common::format_double(cell.mean_objective, 4)});
  }
  return table;
}

}  // namespace mcs::exp
