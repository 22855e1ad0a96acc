// Tests for core/lint.hpp.
#include "core/lint.hpp"

#include <gtest/gtest.h>

#include "core/chebyshev_wcet.hpp"

namespace mcs::core {
namespace {

std::size_t count(const std::vector<LintFinding>& findings,
                  LintSeverity severity) {
  std::size_t n = 0;
  for (const LintFinding& f : findings)
    if (f.severity == severity) ++n;
  return n;
}

TEST(Lint, CleanAssignedSetHasNoFindings) {
  mc::TaskSet tasks;
  mc::McTask hc = mc::McTask::high("h", 60.0, 60.0, 200.0);
  hc.stats = mc::ExecutionStats{10.0, 2.0, nullptr};
  tasks.add(hc);
  tasks.add(mc::McTask::low("l", 20.0, 300.0));
  (void)apply_chebyshev_assignment(tasks, std::vector<double>{3.0});
  EXPECT_TRUE(lint_taskset(tasks).empty());
}

TEST(Lint, MissingStatsIsError) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::high("h", 10.0, 20.0, 100.0));
  const auto findings = lint_taskset(tasks);
  EXPECT_GE(count(findings, LintSeverity::kError), 1U);
  EXPECT_NE(render_lint(findings).find("without ACET"), std::string::npos);
}

TEST(Lint, InconsistentProfileIsError) {
  mc::TaskSet tasks;
  mc::McTask hc = mc::McTask::high("h", 20.0, 20.0, 100.0);
  hc.stats = mc::ExecutionStats{25.0, 2.0, nullptr};  // ACET > C^HI
  tasks.add(hc);
  const auto findings = lint_taskset(tasks);
  EXPECT_GE(count(findings, LintSeverity::kError), 1U);
}

TEST(Lint, DuplicateNamesAndInvalidTasks) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("same", 10.0, 100.0));
  tasks.add(mc::McTask::low("same", 10.0, 100.0));
  tasks.add(mc::McTask::low("broken", 0.0, 100.0));
  const auto findings = lint_taskset(tasks);
  EXPECT_GE(count(findings, LintSeverity::kError), 2U);
}

TEST(Lint, UnassignedOptimismIsWarning) {
  mc::TaskSet tasks;
  mc::McTask hc = mc::McTask::high("h", 20.0, 20.0, 100.0);
  hc.stats = mc::ExecutionStats{5.0, 1.0, nullptr};
  tasks.add(hc);
  const auto findings = lint_taskset(tasks);
  EXPECT_EQ(count(findings, LintSeverity::kError), 0U);
  EXPECT_GE(count(findings, LintSeverity::kWarning), 1U);
  EXPECT_NE(render_lint(findings).find("no optimism"), std::string::npos);
}

TEST(Lint, OverloadedHcWarning) {
  mc::TaskSet tasks;
  for (int i = 0; i < 2; ++i) {
    std::string name = "h";  // not "h" + ...: GCC 12 -Wrestrict
    name += std::to_string(i);  // false positive
    mc::McTask hc = mc::McTask::high(name, 60.0, 60.0, 100.0);
    hc.stats = mc::ExecutionStats{5.0, 1.0, nullptr};
    tasks.add(hc);
  }
  const auto findings = lint_taskset(tasks);
  EXPECT_NE(render_lint(findings).find("U_HC^HI > 1"), std::string::npos);
}

TEST(Lint, LcOverMaxWarning) {
  mc::TaskSet tasks;
  mc::McTask hc = mc::McTask::high("h", 16.0, 60.0, 100.0);
  hc.stats = mc::ExecutionStats{10.0, 2.0, nullptr};
  tasks.add(hc);
  // max(U_LC^LO) with u_lo=0.16, u_hi=0.6: min(0.84, 0.4/0.56) = 0.714.
  tasks.add(mc::McTask::low("l", 80.0, 100.0));  // 0.8 > 0.714
  const auto findings = lint_taskset(tasks);
  EXPECT_NE(render_lint(findings).find("max(U_LC^LO)"), std::string::npos);
}

TEST(Lint, ZeroSigmaWarning) {
  mc::TaskSet tasks;
  mc::McTask hc = mc::McTask::high("h", 10.0, 20.0, 100.0);
  hc.stats = mc::ExecutionStats{5.0, 0.0, nullptr};
  tasks.add(hc);
  EXPECT_NE(render_lint(lint_taskset(tasks)).find("sigma == 0"),
            std::string::npos);
}

}  // namespace
}  // namespace mcs::core
