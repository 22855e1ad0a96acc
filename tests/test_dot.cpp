// Tests for wcet/dot.hpp.
#include "wcet/dot.hpp"

#include <gtest/gtest.h>

#include "wcet/program.hpp"

namespace mcs::wcet {
namespace {

BasicBlock alu_block(const char* label, std::size_t n) {
  BasicBlock b(label);
  b.add(OpClass::kAlu, n);
  return b;
}

TEST(Dot, ContainsNodesEdgesAndBounds) {
  const auto p = loop(7, alu_block("head", 2), block(alu_block("body", 3)));
  const ControlFlowGraph cfg = lower_program(*p);
  const std::string dot = to_dot(cfg);
  EXPECT_NE(dot.find("digraph cfg"), std::string::npos);
  EXPECT_NE(dot.find("head"), std::string::npos);
  EXPECT_NE(dot.find("body"), std::string::npos);
  EXPECT_NE(dot.find("loop bound 7"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  // The back edge renders dashed.
  EXPECT_NE(dot.find("[style=dashed]"), std::string::npos);
}

TEST(Dot, CostsWhenModelGiven) {
  const auto p = block(alu_block("work", 5));
  const ControlFlowGraph cfg = lower_program(*p);
  const CostModel model = CostModel::worst_case();
  const std::string dot = to_dot(cfg, &model);
  // 5 ALU at 1 cycle + 2 overhead = 7 cycles.
  EXPECT_NE(dot.find("7 cyc"), std::string::npos);
  EXPECT_EQ(to_dot(cfg).find("cyc"), std::string::npos);
}

TEST(Dot, EveryBlockAndEdgeListed) {
  const auto p = if_else(alu_block("c", 1), block(alu_block("t", 1)),
                         block(alu_block("e", 1)));
  const ControlFlowGraph cfg = lower_program(*p);
  const std::string dot = to_dot(cfg);
  for (BlockId b = 0; b < cfg.block_count(); ++b) {
    std::string node = "b";  // not "b" + ...: GCC 12 -Wrestrict
    node += std::to_string(b);  // false positive
    node += " [";
    EXPECT_NE(dot.find(node), std::string::npos);
  }
}

}  // namespace
}  // namespace mcs::wcet
