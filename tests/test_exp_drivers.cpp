// Smoke and shape tests for the experiment drivers (src/exp) at reduced
// scale: every driver must run, produce the right row structure, and obey
// the paper's qualitative relationships.
#include <gtest/gtest.h>

#include "exp/ablation.hpp"
#include "exp/assignment_methods.hpp"
#include "exp/fig1.hpp"
#include "exp/fig2.hpp"
#include "exp/fig3.hpp"
#include "exp/fig6.hpp"
#include "exp/multicore.hpp"
#include "exp/policy_sweep.hpp"
#include "exp/table1.hpp"
#include "exp/table2.hpp"

namespace mcs::exp {
namespace {

core::OptimizerConfig tiny_ga() {
  core::OptimizerConfig c;
  c.ga.population_size = 16;
  c.ga.generations = 12;
  return c;
}

TEST(Table1Driver, RowsAndShape) {
  const auto rows = run_table1(150, 1, 500);
  ASSERT_EQ(rows.size(), 7U);
  for (const Table1Row& row : rows) {
    EXPECT_GT(row.acet, 0.0);
    EXPECT_GT(row.wcet_pes, row.acet);
    EXPECT_GT(row.sigma, 0.0);
    // Overrun at ACET is near one half; fraction columns are monotone
    // non-decreasing as the divisor grows (threshold shrinks).
    EXPECT_GT(row.overrun_at_acet, 0.1);
    EXPECT_LT(row.overrun_at_acet, 0.9);
    for (std::size_t d = 1; d < row.overrun_at_fraction.size(); ++d)
      EXPECT_GE(row.overrun_at_fraction[d],
                row.overrun_at_fraction[d - 1] - 1e-12);
  }
  const common::Table table = render_table1(rows);
  EXPECT_EQ(table.row_count(), 7U);
}

TEST(Table1Driver, QsortGapGrowsWithSize) {
  const auto rows = run_table1(100, 2, 400);
  const double gap10 = rows[0].wcet_pes / rows[0].acet;
  const double gap100 = rows[1].wcet_pes / rows[1].acet;
  const double gap_large = rows[2].wcet_pes / rows[2].acet;
  EXPECT_LT(gap10, gap100);
  EXPECT_LT(gap100, gap_large);
}

TEST(Table2Driver, BoundDominatesMeasurement) {
  const Table2Data data = run_table2(300, 3);
  ASSERT_EQ(data.applications.size(), 5U);
  ASSERT_EQ(data.rows.size(), 5U);  // n = 0..4
  for (const Table2Row& row : data.rows) {
    for (const double measured : row.measured)
      EXPECT_LE(measured, row.analysis_bound + 0.05)
          << "n=" << row.n;
  }
  // n=0 analysis bound is 100%.
  EXPECT_DOUBLE_EQ(data.rows[0].analysis_bound, 1.0);
  const common::Table table = render_table2(data);
  EXPECT_EQ(table.row_count(), 5U);
}

TEST(Fig1Driver, GapIsLarge) {
  const Fig1Data data = run_fig1("edge", 200, 20, 4);
  EXPECT_GT(data.gap(), 4.0);
  EXPECT_GE(data.wcet_pes, data.observed_max);
  const std::string art = render_fig1(data);
  EXPECT_NE(art.find("ACET"), std::string::npos);
  EXPECT_THROW((void)run_fig1("nonexistent", 10, 5, 1),
               std::invalid_argument);
}

TEST(Fig2Driver, TradeoffShape) {
  const Fig2Data data = run_fig2(0.85, 40.0, 1.0, 5);
  ASSERT_GT(data.sweep.size(), 10U);
  // P_MS strictly decreasing, max U non-increasing along the sweep.
  for (std::size_t i = 1; i < data.sweep.size(); ++i) {
    EXPECT_LE(data.sweep[i].breakdown.p_ms,
              data.sweep[i - 1].breakdown.p_ms + 1e-12);
    EXPECT_LE(data.sweep[i].breakdown.max_u_lc,
              data.sweep[i - 1].breakdown.max_u_lc + 1e-12);
  }
  // Optimum is interior and matches the sweep's argmax.
  EXPECT_GT(data.optimum.n, 0.0);
  for (const auto& p : data.sweep)
    EXPECT_GE(data.optimum.breakdown.objective, p.breakdown.objective);
  EXPECT_EQ(render_fig2(data).row_count(), data.sweep.size());
}

TEST(Fig3Driver, UtilizationRaisesSwitchProbability) {
  const Fig3Data data = run_fig3({10.0}, {0.4, 0.8}, 40, 6);
  ASSERT_EQ(data.cells.size(), 2U);
  // Higher U_HC^HI -> more HC tasks -> higher P_sys^MS, lower max U_LC.
  EXPECT_LT(data.cells[0].mean_p_ms, data.cells[1].mean_p_ms);
  EXPECT_GT(data.cells[0].mean_max_u_lc, data.cells[1].mean_max_u_lc);
}

TEST(Fig3Driver, LargerNLowersSwitchProbability) {
  const Fig3Data data = run_fig3({5.0, 20.0}, {0.6}, 40, 7);
  ASSERT_EQ(data.cells.size(), 2U);
  EXPECT_GT(data.cells[0].mean_p_ms, data.cells[1].mean_p_ms);
}

TEST(PolicySweep, ProposedDominatesOnObjective) {
  const auto points = run_policy_sweep({0.6}, 6, 8, tiny_ga());
  ASSERT_EQ(points.size(), 1U);
  const auto& scores = points[0].scores;
  const core::PolicyScore& proposed = scores.back();
  for (std::size_t p = 0; p + 1 < scores.size(); ++p)
    EXPECT_GE(proposed.objective, scores[p].objective);
  const PolicySweepHeadline headline = summarize_policy_sweep(points);
  EXPECT_GE(headline.max_utilization_gain, 0.0);
  EXPECT_LE(headline.worst_case_p_ms, 1.0);
  EXPECT_GT(render_fig4(points).row_count(), 0U);
  EXPECT_GT(render_fig5(points).row_count(), 0U);
}

TEST(Fig6Driver, SchemeImprovesAcceptance) {
  const auto points = run_fig6({0.6, 1.1}, 40, 9);
  ASSERT_EQ(points.size(), 2U);
  for (const Fig6Point& p : points) {
    EXPECT_GE(p.baruah_chebyshev, p.baruah_lambda - 0.05);
    EXPECT_GE(p.liu_chebyshev, p.liu_lambda - 0.05);
  }
  // Low utilization: everything accepted.
  EXPECT_DOUBLE_EQ(points[0].baruah_lambda, 1.0);
  EXPECT_EQ(render_fig6(points).row_count(), 2U);
}

TEST(AblationA1, GaNeverLosesBadly) {
  const auto points = run_ga_vs_uniform({0.6}, 4, 10, tiny_ga());
  ASSERT_EQ(points.size(), 1U);
  EXPECT_GE(points[0].ga_objective, 0.9 * points[0].uniform_objective);
  EXPECT_GT(render_ga_vs_uniform(points).row_count(), 0U);
}

TEST(ExtensionE1, MulticoreSchemeDominatesLambda) {
  const auto points = run_multicore({2}, {0.8, 1.2}, 30, 13);
  ASSERT_EQ(points.size(), 2U);
  for (const MulticorePoint& p : points) {
    EXPECT_GE(p.chebyshev_acceptance, p.lambda_acceptance - 0.05);
    EXPECT_GE(p.lambda_acceptance, 0.0);
    EXPECT_LE(p.chebyshev_acceptance, 1.0);
  }
  // Low per-core bound: everyone accepts; stressed bound separates them.
  EXPECT_DOUBLE_EQ(points[0].lambda_acceptance, 1.0);
  EXPECT_GT(points[1].chebyshev_acceptance, points[1].lambda_acceptance);
  EXPECT_EQ(render_multicore(points).row_count(), 2U);
}

TEST(AblationA4, ChebyshevIsSafeQuantileIsTight) {
  const auto comparisons = run_assignment_methods(800, 12);
  ASSERT_EQ(comparisons.size(), 5U);
  for (const AssignmentComparison& cmp : comparisons) {
    ASSERT_EQ(cmp.methods.size(), 3U);
    const MethodScore& chebyshev = cmp.methods[0];
    const MethodScore& quantile = cmp.methods[1];
    // The Chebyshev bound's 10% target must hold even on held-out data.
    EXPECT_LE(chebyshev.holdout_overrun, 0.10 + 0.02) << cmp.application;
    // The quantile is at least as tight a C^LO as Chebyshev.
    EXPECT_LE(quantile.wcet_opt, chebyshev.wcet_opt + 1e-9)
        << cmp.application;
    // Every method stays within the certified bound.
    for (const MethodScore& m : cmp.methods)
      EXPECT_GE(m.utilization_cost, 1.0 - 0.25) << m.method;
  }
  EXPECT_GT(render_assignment_methods(comparisons).row_count(), 0U);
}

TEST(AblationA2A3, SimulatorConfirmsAnalysis) {
  // A stressed multiplier cap (as bench/ablation_runtime_policy uses)
  // makes C^LO budgets small enough that jobs overrun them and LC jobs
  // get dropped; otherwise every simulator column reads 0 and the checks
  // below could not fail.
  core::OptimizerConfig optimizer = tiny_ga();
  optimizer.n_cap = 2.0;
  const auto points = run_sim_validation({0.5}, 3, 40000.0, 11, optimizer);
  ASSERT_EQ(points.size(), 1U);
  const SimValidationPoint& p = points[0];
  EXPECT_GT(p.sim_overrun_rate, 0.0);
  EXPECT_GT(p.sim_drop_rate_dropall, 0.0);
  // The measured overrun rate must respect the analytic bound, HC tasks
  // must never miss deadlines, and degrading must drop fewer LC jobs.
  EXPECT_LE(p.sim_overrun_rate, p.analytic_p_ms + 0.05);
  EXPECT_DOUBLE_EQ(p.sim_hc_miss_dropall, 0.0);
  EXPECT_DOUBLE_EQ(p.sim_hc_miss_degrade, 0.0);
  EXPECT_LE(p.sim_drop_rate_degrade, p.sim_drop_rate_dropall + 0.05);
  EXPECT_GT(render_sim_validation(points).row_count(), 0U);
}

}  // namespace
}  // namespace mcs::exp
