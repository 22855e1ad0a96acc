// Micro-performance benchmarks (google-benchmark) for the library's hot
// paths: the statistics kernels, the static analyzer, the GA engine, the
// discrete-event simulator, the measurement kernels and the serve request
// path. These are engineering benchmarks, not paper reproductions — they
// document the library's throughput so users can size paper-scale sweeps.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "apps/qsort_kernel.hpp"
#include "common/net.hpp"
#include "common/rng.hpp"
#include "common/stats_accumulator.hpp"
#include "core/chebyshev_wcet.hpp"
#include "core/objective.hpp"
#include "core/optimizer.hpp"
#include "core/serve.hpp"
#include "core/serve_net.hpp"
#include "ga/engine.hpp"
#include "sched/amc.hpp"
#include "sched/edf_vd.hpp"
#include "sched/partition.hpp"
#include "sched/policies.hpp"
#include "sim/engine.hpp"
#include "stats/chebyshev.hpp"
#include "stats/distributions.hpp"
#include "taskgen/generator.hpp"
#include "wcet/analyzer.hpp"

namespace {

using namespace mcs;

void BM_RngUniform(benchmark::State& state) {
  common::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform01());
}
BENCHMARK(BM_RngUniform);

void BM_StatsAccumulator(benchmark::State& state) {
  common::Rng rng(2);
  common::StatsAccumulator acc;
  for (auto _ : state) {
    acc.add(rng.uniform01());
    benchmark::DoNotOptimize(acc.mean());
  }
}
BENCHMARK(BM_StatsAccumulator);

void BM_ChebyshevBound(benchmark::State& state) {
  double n = 0.0;
  for (auto _ : state) {
    n += 0.001;
    benchmark::DoNotOptimize(stats::chebyshev_exceedance_bound(n));
  }
}
BENCHMARK(BM_ChebyshevBound);

void BM_LogNormalSample(benchmark::State& state) {
  const auto dist = stats::LogNormalDistribution::from_moments(10.0, 3.0);
  common::Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(dist->sample(rng));
}
BENCHMARK(BM_LogNormalSample);

void BM_StaticAnalysisQsort(benchmark::State& state) {
  const apps::QsortKernel kernel(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto result = wcet::analyze_program(*kernel.worst_case_program());
    benchmark::DoNotOptimize(result.wcet());
  }
}
BENCHMARK(BM_StaticAnalysisQsort)->Arg(100)->Arg(10000);

void BM_KernelRunQsort(benchmark::State& state) {
  const apps::QsortKernel kernel(
      static_cast<std::size_t>(state.range(0)));
  common::Rng rng(4);
  for (auto _ : state)
    benchmark::DoNotOptimize(kernel.run_once(rng));
}
BENCHMARK(BM_KernelRunQsort)->Arg(100)->Arg(1000);

mc::TaskSet bench_taskset(double u, std::uint64_t seed) {
  common::Rng rng(seed);
  taskgen::GeneratorConfig config;
  return taskgen::generate_hc_only(config, u, rng);
}

void BM_ObjectiveEvaluation(benchmark::State& state) {
  const mc::TaskSet tasks = bench_taskset(0.7, 5);
  const std::vector<double> n(tasks.count(mc::Criticality::kHigh), 5.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::evaluate_multipliers(tasks, n).objective);
}
BENCHMARK(BM_ObjectiveEvaluation);

void BM_EdfVdTest(benchmark::State& state) {
  const sched::McUtilization u{.lc_lo = 0.4, .hc_lo = 0.2, .hc_hi = 0.7};
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::edf_vd_test(u).schedulable);
}
BENCHMARK(BM_EdfVdTest);

void BM_AmcRtbTest(benchmark::State& state) {
  common::Rng rng(8);
  taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  const mc::TaskSet tasks = taskgen::generate_mixed(config, 0.9, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::amc_rtb_test(tasks).schedulable);
}
BENCHMARK(BM_AmcRtbTest);

void BM_PartitionWorstFit(benchmark::State& state) {
  common::Rng rng(9);
  taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  const mc::TaskSet tasks = taskgen::generate_mixed(
      config, static_cast<double>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::partition_tasks(tasks, static_cast<std::size_t>(state.range(0)),
                               sched::PartitionHeuristic::kWorstFit)
            .feasible);
  }
}
BENCHMARK(BM_PartitionWorstFit)->Arg(2)->Arg(8);

void BM_GaOptimize(benchmark::State& state) {
  const mc::TaskSet tasks = bench_taskset(0.7, 6);
  core::OptimizerConfig config;
  config.ga.population_size = static_cast<std::size_t>(state.range(0));
  config.ga.generations = 40;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::optimize_multipliers_ga(tasks, config).breakdown.objective);
  }
}
BENCHMARK(BM_GaOptimize)->Arg(20)->Arg(60);

std::vector<double> policy_samples(std::size_t count) {
  common::Rng rng(14);
  std::vector<double> xs;
  xs.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    xs.push_back(rng.normal(50.0, 5.0));
  return xs;
}

sched::HcTaskProfile policy_profile(const std::vector<double>& xs) {
  sched::HcTaskProfile profile;
  profile.acet = 50.0;
  profile.sigma = 5.0;
  profile.wcet_pes = 500.0;
  profile.period = 1000.0;
  profile.samples = &xs;
  return profile;
}

// The measurement-based policies fit their samples on every call: an
// O(m log m) sort for the quantile, block maxima plus a Gumbel fit for
// EVT.
void BM_QuantilePolicy(benchmark::State& state) {
  const std::vector<double> xs =
      policy_samples(static_cast<std::size_t>(state.range(0)));
  const sched::HcTaskProfile profile = policy_profile(xs);
  const sched::EmpiricalQuantilePolicy policy(0.99);
  common::Rng rng(15);
  for (auto _ : state)
    benchmark::DoNotOptimize(policy.wcet_opt(profile, rng));
}
BENCHMARK(BM_QuantilePolicy)->Arg(1000)->Arg(10000);

void BM_EvtPolicy(benchmark::State& state) {
  const std::vector<double> xs =
      policy_samples(static_cast<std::size_t>(state.range(0)));
  const sched::HcTaskProfile profile = policy_profile(xs);
  const sched::EvtPwcetPolicy policy(0.01, 50);
  common::Rng rng(17);
  for (auto _ : state)
    benchmark::DoNotOptimize(policy.wcet_opt(profile, rng));
}
BENCHMARK(BM_EvtPolicy)->Arg(1000)->Arg(10000);

void BM_Simulation(benchmark::State& state) {
  common::Rng rng(7);
  taskgen::GeneratorConfig config;
  mc::TaskSet tasks = taskgen::generate_hc_only(config, 0.5, rng);
  const std::vector<double> n(tasks.count(mc::Criticality::kHigh), 4.0);
  (void)core::apply_chebyshev_assignment(tasks, n);
  sim::SimConfig sim_config;
  sim_config.horizon = static_cast<double>(state.range(0));
  std::uint64_t total_jobs = 0;
  for (auto _ : state) {
    sim_config.seed = total_jobs + 1;
    const sim::SimResult result = sim::simulate(tasks, sim_config);
    total_jobs += result.metrics.hc_jobs_released;
    benchmark::DoNotOptimize(result.metrics.mode_switches);
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(total_jobs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Simulation)->Arg(10000)->Arg(100000);

/// Admits 34 monitored HC tasks (ids 1-34) into `session` and returns one
/// serve_telemetry-shaped batch as a connection sends it: ten `record id=`
/// lines per task, then a `ping`, 341 lines in all.
std::string telemetry_batch(core::ServeSession& session) {
  constexpr std::size_t kTasks = 34;
  char line[128];
  for (std::size_t k = 0; k < kTasks; ++k) {
    std::snprintf(line, sizeof line,
                  "admit name=t%zu crit=HC wcet_lo=2 wcet_hi=4 period=%zu "
                  "acet=1.5 sigma=0.3",
                  k, 1000 + 10 * k);
    (void)session.handle_line(line);
  }
  common::Rng rng(18);
  std::string wire;
  for (std::size_t r = 0; r < 10 * kTasks; ++r) {
    std::snprintf(line, sizeof line, "record id=%zu time=%.6g\n",
                  1 + r % kTasks, rng.uniform(1.0, 2.0));
    wire += line;
  }
  return wire + "ping\n";
}

// The network request path without the socket: one read's worth of
// requests framed by LineBuffer, each line's view handed to the serve
// handler, the replies appended to the connection's output queue.
void BM_ServeFramedBatch(benchmark::State& state) {
  core::ServeSession session;
  const std::string wire = telemetry_batch(session);
  core::NetServeFront front(&session);
  common::net::LineBuffer in;
  std::string out;
  std::string_view line;
  std::int64_t lines = 0;
  for (auto _ : state) {
    in.feed(wire.data(), wire.size());
    while (in.next(&line)) {
      benchmark::DoNotOptimize(front.on_line(1, line, out));
      ++lines;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    out.clear();
  }
  state.SetItemsProcessed(lines);
}
BENCHMARK(BM_ServeFramedBatch);

// The same lines straight into ServeSession::handle_line: the difference
// to BM_ServeFramedBatch is the framing and reply-queue cost per line.
void BM_ServeHandleLine(benchmark::State& state) {
  core::ServeSession session;
  const std::string wire = telemetry_batch(session);
  std::vector<std::string_view> lines;
  for (std::size_t at = 0; at < wire.size();) {
    const std::size_t nl = wire.find('\n', at);
    lines.push_back(std::string_view(wire).substr(at, nl - at));
    at = nl + 1;
  }
  for (auto _ : state)
    for (const std::string_view line : lines)
      benchmark::DoNotOptimize(session.handle_line(line));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_ServeHandleLine);

}  // namespace

BENCHMARK_MAIN();
