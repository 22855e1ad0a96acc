// The three workloads. Each runs whole rounds until `seconds` of timed
// work has accumulated; every round repeats the same seeded inputs from a
// fresh set-up, so set-up time is sampled once per round and the outputs
// and exact counts of every round must agree.
#pragma once

#include "harness.hpp"

namespace mcsbench {

Result run_serve_churn(const Options& options);
Result run_serve_telemetry(const Options& options);
Result run_design_flow(const Options& options);

}  // namespace mcsbench
