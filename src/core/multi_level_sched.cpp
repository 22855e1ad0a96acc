#include "core/multi_level_sched.hpp"

#include <algorithm>
#include <stdexcept>

#include "stats/chebyshev.hpp"

namespace mcs::core {

bool MlSystem::valid() const {
  if (levels < 2 || tasks.empty()) return false;
  if (rho < 0.0 || rho > 1.0) return false;
  for (const MlTask& task : tasks) {
    if (task.level < 1 || task.level > levels) return false;
    if (task.period <= 0.0 || task.acet <= 0.0 || task.sigma < 0.0)
      return false;
    if (task.wcet_pes < task.acet) return false;
  }
  return true;
}

std::size_t MlSystem::genome_length() const {
  std::size_t length = 0;
  for (const MlTask& task : tasks) length += task.level - 1;
  return length;
}

MlAssignment decode_ml_assignment(const MlSystem& system,
                                  std::span<const double> increments) {
  if (!system.valid())
    throw std::invalid_argument("decode_ml_assignment: invalid system");
  if (increments.size() != system.genome_length())
    throw std::invalid_argument(
        "decode_ml_assignment: genome length mismatch");

  MlAssignment assignment;
  assignment.budgets.resize(system.tasks.size());
  assignment.multipliers.resize(system.tasks.size());
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < system.tasks.size(); ++i) {
    const MlTask& task = system.tasks[i];
    auto& budgets = assignment.budgets[i];
    auto& multipliers = assignment.multipliers[i];
    budgets.resize(task.level);
    multipliers.resize(task.level);
    double n = 0.0;
    for (std::size_t rung = 0; rung + 1 < task.level; ++rung) {
      const double delta = increments[cursor++];
      if (delta < 0.0)
        throw std::invalid_argument(
            "decode_ml_assignment: increments must be >= 0");
      n += delta;
      const double raw = task.acet + n * task.sigma;
      budgets[rung] = std::min(raw, task.wcet_pes);
      multipliers[rung] =
          task.sigma > 0.0 ? (budgets[rung] - task.acet) / task.sigma : n;
    }
    // Top rung: the certified bound (effectively infinite multiplier —
    // a task can never exceed it, so record the Eq. 9 headroom).
    budgets[task.level - 1] = task.wcet_pes;
    multipliers[task.level - 1] =
        task.sigma > 0.0 ? (task.wcet_pes - task.acet) / task.sigma : 0.0;
  }
  return assignment;
}

MlEvaluation evaluate_ml_assignment(const MlSystem& system,
                                    const MlAssignment& assignment) {
  if (assignment.budgets.size() != system.tasks.size())
    throw std::invalid_argument(
        "evaluate_ml_assignment: assignment/system mismatch");
  MlEvaluation eval;
  eval.mode_utilization.assign(system.levels, 0.0);
  eval.escalation_probability.assign(system.levels - 1, 0.0);

  // Per-mode utilization.
  for (std::size_t m = 1; m <= system.levels; ++m) {
    double util = 0.0;
    for (std::size_t i = 0; i < system.tasks.size(); ++i) {
      const MlTask& task = system.tasks[i];
      if (task.level >= m) {
        util += assignment.budgets[i][m - 1] / task.period;
      } else if (system.rho > 0.0) {
        // Degraded continuation of lower-criticality tasks.
        util += system.rho * assignment.budgets[i][task.level - 1] /
                task.period;
      }
    }
    eval.mode_utilization[m - 1] = util;
  }

  // Per-mode escalation bound: tasks strictly above mode m can overrun
  // their mode-m budget.
  for (std::size_t m = 1; m < system.levels; ++m) {
    double stay = 1.0;
    for (std::size_t i = 0; i < system.tasks.size(); ++i) {
      const MlTask& task = system.tasks[i];
      if (task.level <= m) continue;
      const double n = assignment.multipliers[i][m - 1];
      stay *= 1.0 - stats::chebyshev_exceedance_bound(n);
    }
    eval.escalation_probability[m - 1] = 1.0 - stay;
  }

  eval.feasible = std::all_of(eval.mode_utilization.begin(),
                              eval.mode_utilization.end(),
                              [](double u) { return u <= 1.0; });
  if (eval.feasible) {
    double objective = 0.0;
    for (std::size_t m = 1; m < system.levels; ++m) {
      const double slack = 1.0 - eval.mode_utilization[m - 1];
      objective += (1.0 - eval.escalation_probability[m - 1]) * slack;
    }
    eval.objective = objective;
  }
  return eval;
}

namespace {

/// GA wrapper: genes are the per-rung multiplier increments.
class MlProblem final : public ga::Problem {
 public:
  MlProblem(const MlSystem& system, double cap)
      : system_(system), length_(system.genome_length()), cap_(cap) {
    if (length_ == 0)
      throw std::invalid_argument(
          "optimize_ml_ga: no rungs to optimize (all tasks at level 1?)");
  }

  [[nodiscard]] std::size_t dimension() const override { return length_; }
  [[nodiscard]] double lower_bound(std::size_t) const override { return 0.0; }
  [[nodiscard]] double upper_bound(std::size_t) const override {
    return cap_;
  }
  [[nodiscard]] double evaluate(std::span<const double> genes) const override {
    const MlAssignment assignment = decode_ml_assignment(system_, genes);
    return evaluate_ml_assignment(system_, assignment).objective;
  }

 private:
  const MlSystem& system_;
  std::size_t length_;
  double cap_;
};

}  // namespace

MlOptimizationResult optimize_ml_ga(const MlSystem& system,
                                    const ga::GaConfig& config,
                                    double increment_cap,
                                    const ga::IslandPlan& plan) {
  if (!system.valid())
    throw std::invalid_argument("optimize_ml_ga: invalid system");
  const MlProblem problem(system, increment_cap);
  ga::IslandGaConfig island_config;
  island_config.ga = config;
  island_config.plan = plan;
  const ga::IslandGaResult ga_result =
      ga::run_island_ga(problem, island_config);
  MlOptimizationResult result;
  result.increments = ga::run_winner(island_config, ga_result).genes;
  result.assignment = decode_ml_assignment(system, result.increments);
  result.evaluation = evaluate_ml_assignment(system, result.assignment);
  return result;
}

}  // namespace mcs::core
