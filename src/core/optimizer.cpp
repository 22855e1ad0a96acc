#include "core/optimizer.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"

namespace mcs::core {

namespace {

/// GA problem wrapper: genes are the per-HC-task multipliers.
class MultiplierProblem final : public ga::Problem {
 public:
  MultiplierProblem(const mc::TaskSet& tasks, double n_cap)
      : tasks_(tasks), hc_(tasks.indices(mc::Criticality::kHigh)) {
    if (hc_.empty())
      throw std::invalid_argument(
          "optimize_multipliers_ga: no HC task to optimize");
    upper_.reserve(hc_.size());
    for (const std::size_t idx : hc_) {
      const double n_max = max_multiplier(tasks_[idx]);
      upper_.push_back(std::min(n_cap, n_max));
    }
  }

  [[nodiscard]] std::size_t dimension() const override { return hc_.size(); }
  [[nodiscard]] double lower_bound(std::size_t) const override { return 0.0; }
  [[nodiscard]] double upper_bound(std::size_t i) const override {
    return upper_[i];
  }
  [[nodiscard]] double evaluate(std::span<const double> genes) const override {
    return evaluate_multipliers(tasks_, genes).objective;
  }

 private:
  const mc::TaskSet& tasks_;
  std::vector<std::size_t> hc_;
  std::vector<double> upper_;
};

}  // namespace

std::unique_ptr<ga::Problem> make_multiplier_problem(const mc::TaskSet& tasks,
                                                     double n_cap) {
  return std::make_unique<MultiplierProblem>(tasks, n_cap);
}

OptimizationResult optimize_multipliers_ga(const mc::TaskSet& tasks,
                                           const OptimizerConfig& config) {
  const MultiplierProblem problem(tasks, config.n_cap);
  ga::IslandGaConfig island_config;
  island_config.ga = config.ga;
  island_config.plan = config.islands;
  island_config.seed_genomes = config.warm_start;
  const ga::IslandGaResult ga_result =
      ga::run_island_ga(problem, island_config);
  OptimizationResult result;
  result.n = ga::run_winner(island_config, ga_result).genes;
  result.search = ga_result.stats;
  result.breakdown = evaluate_multipliers(tasks, result.n);
  return result;
}

std::vector<double> uniform_n_grid(double n_min, double n_max, double step) {
  if (n_min < 0.0 || step <= 0.0 || n_max < n_min)
    throw std::invalid_argument("sweep_uniform_n: invalid range");
  // Enumerate the grid with the same repeated-addition recurrence as the
  // legacy loop so grid values stay bit-identical to it.
  std::vector<double> grid;
  for (double n = n_min; n <= n_max + 1e-12; n += step) grid.push_back(n);
  return grid;
}

std::vector<UniformSweepPoint> evaluate_uniform_n(
    const mc::TaskSet& tasks, const std::vector<double>& grid) {
  const std::size_t hc_count = tasks.count(mc::Criticality::kHigh);
  return common::parallel_map(grid.size(), [&](std::size_t i) {
    const std::vector<double> genes(hc_count, grid[i]);
    return UniformSweepPoint{grid[i], evaluate_multipliers(tasks, genes)};
  });
}

std::vector<UniformSweepPoint> sweep_uniform_n(const mc::TaskSet& tasks,
                                               double n_min, double n_max,
                                               double step) {
  return evaluate_uniform_n(tasks, uniform_n_grid(n_min, n_max, step));
}

UniformSweepPoint best_uniform_n(const mc::TaskSet& tasks, double n_min,
                                 double n_max, double step) {
  const auto points = sweep_uniform_n(tasks, n_min, n_max, step);
  const auto it = std::max_element(
      points.begin(), points.end(),
      [](const UniformSweepPoint& a, const UniformSweepPoint& b) {
        return a.breakdown.objective < b.breakdown.objective;
      });
  return *it;
}

}  // namespace mcs::core
