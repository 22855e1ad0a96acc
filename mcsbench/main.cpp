// mcsbench: end-to-end benchmark of the admission service and the design
// flow. Usage (run.py builds this binary and passes --server):
//
//   mcsbench --workload serve_churn|serve_telemetry|design_flow
//            --seed N --seconds S --trace 0|1 --server PATH/mcs-cli
//            [--git SHA] [--build-type T]
//
// Prints a human-readable report, then as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer breakdown. Exits 1 when
// any output check failed, 2 when the run could not complete.
#include <unistd.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace mcsbench {

namespace {

/// Percentile reported as tail_ms. p99 is printed too, but it is not
/// gated: in the steadiness runs it moved up to 5x when the host was
/// contended, while p90 moved with throughput (mcsbench/STEADINESS.md).
constexpr double kTailQuantile = 0.9;

/// Every per-layer metric, in report order. A workload that does not
/// reach a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"serve.server_cpu_us_per_op", "us"},
    {"net.transport_us_per_op", "us"},
    {"net.frame_ns_per_line", "ns"},
    {"serve.self_us_per_op", "us"},
    {"admission.admit_us.p50", "us"},
    {"admission.admit_us.p99", "us"},
    {"admission.remove_us.p50", "us"},
    {"admission.remove_us.p99", "us"},
    {"admission.update_us.p50", "us"},
    {"admission.update_us.p99", "us"},
    {"admission.full_scans", "count"},
    {"admission.append_scans", "count"},
    {"admission.shortcut_departures", "count"},
    {"admission.demand_searches", "count"},
    {"admission.reject_share", "ratio"},
    {"admission.demand_flip_share", "ratio"},
    {"admission.session_share", "ratio"},
    {"online.record_ns", "ns"},
    {"online.tick_ms.p50", "ms"},
    {"online.tick_ms.p99", "ms"},
    {"online.drifted", "count"},
    {"online.reopt_applied_share", "ratio"},
    {"taskgen.generate_us", "us"},
    {"optimizer.optimize_ms.p50", "ms"},
    {"optimizer.optimize_ms.p99", "ms"},
    {"optimizer.set_share", "ratio"},
    {"ga.evaluations", "count"},
    {"ga.cache_hits", "count"},
    {"ga.self_share", "ratio"},
    {"objective.evaluate_us", "us"},
    {"sched.edf_vd_us", "us"},
    {"sched.admitted_share", "ratio"},
    {"sim.simulate_ms.p50", "ms"},
    {"sim.simulate_ms.p99", "ms"},
    {"sim.set_share", "ratio"},
    {"sim.ns_per_job", "ns"},
    {"sim.jobs", "count"},
    {"sim.mode_switches", "count"},
    {"pool.busy_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Highest percentile on a 9s ladder with at least ten samples beyond it.
std::string tail_note(const std::vector<double>& samples) {
  const double n = static_cast<double>(samples.size());
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999})
    if (n - std::ceil(q * n) >= 10.0) best = q;
  if (best == 0.0) return "fewer than 20 samples";
  char buf[160];
  std::snprintf(buf, sizeof buf, "p%g = %.6g ms (%.0f of %.0f samples beyond)",
                100.0 * best, percentile(samples, best),
                n - std::ceil(best * n), n);
  return buf;
}

bool parse_args(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (arg == "--workload") options->workload = value;
    else if (arg == "--seed") options->seed = std::stoull(value);
    else if (arg == "--seconds") options->seconds = std::stod(value);
    else if (arg == "--trace") options->trace = value == "1";
    else if (arg == "--server") options->server = value;
    else if (arg == "--git") options->git_sha = value;
    else if (arg == "--build-type") options->build_type = value;
    else return false;
  }
  return !options->workload.empty() && !options->server.empty() &&
         options->seconds > 0.0;
}

int report(const Options& options, const Result& result) {
  std::printf("mcsbench workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
              "git=%s build=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
              options.git_sha.c_str(), options.build_type.c_str());
  std::printf("record input_hash=%s output_hash=%s",
              hex(result.input_hash).c_str(), hex(result.output_hash).c_str());
  for (const auto& [key, value] : result.facts)
    std::printf(" %s=%s", key.c_str(), value.c_str());
  std::printf("\ncounts");
  for (const auto& [key, value] : result.counts)
    std::printf(" %s=%llu", key.c_str(), static_cast<unsigned long long>(value));
  std::printf("\n");

  // End-to-end figures: per-round values, trimmed mean over the measured
  // rounds; set-up time is the median of the measured rounds' set-ups.
  std::vector<double> throughput;
  std::vector<double> p50;
  std::vector<double> tail;
  std::vector<double> p99;
  std::vector<double> pooled;
  for (std::size_t i = kWarmupRounds; i < result.rounds.size(); ++i) {
    const Result::Round& r = result.rounds[i];
    throughput.push_back(static_cast<double>(r.ops) / r.timed_s);
    p50.push_back(percentile(r.latencies_ms, 0.5));
    tail.push_back(percentile(r.latencies_ms, kTailQuantile));
    p99.push_back(percentile(r.latencies_ms, 0.99));
    pooled.insert(pooled.end(), r.latencies_ms.begin(), r.latencies_ms.end());
  }
  const std::vector<double> setups_s(
      result.setups_s.begin() + static_cast<std::ptrdiff_t>(kWarmupRounds),
      result.setups_s.end());
  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"throughput_per_s", trimmed_mean(throughput), "1/s"},
        {"p50_ms", trimmed_mean(p50), "ms"},
        {"tail_ms", trimmed_mean(tail), "ms"},
        {"setup_s", median(setups_s), "s"},
        {"rss_mb", result.rss_mb, "MB"},
    };
  } else {
    for (const auto& [name, unit] : kLayerMetrics) {
      Metric m{name, 0.0, unit};
      for (const Metric& got : result.layers)
        if (got.name == name) m.value = got.value;
      metrics.push_back(m);
    }
  }
  for (const Metric& m : metrics)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  if (!options.trace)
    std::printf("  tail_ms is the per-round p90; ungated: per-round p99 "
                "%.6g ms, and pooled over the rounds %s\n",
                trimmed_mean(p99), tail_note(pooled).c_str());
  if (!throughput.empty())
    std::printf("  per-round throughput_per_s: min %.6g median %.6g max %.6g\n",
                percentile(throughput, 0.0), median(throughput),
                percentile(throughput, 1.0));
  std::printf("  attempted=%llu failed=%llu timed=%.3fs rounds=%zu "
              "(%zu warm-up)\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.timed_s(), result.rounds.size(), kWarmupRounds);
  for (const std::string& e : result.errors)
    std::printf("  FAILED: %s\n", e.c_str());

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace mcsbench

int main(int argc, char** argv) {
  using namespace mcsbench;
  Options options;
  try {
    if (!parse_args(argc, argv, &options)) {
      std::fprintf(stderr,
                   "usage: mcsbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 --server PATH [--git SHA] [--build-type T]\n");
      return 2;
    }
    Result result;
    if (options.workload == "serve_churn") result = run_serve_churn(options);
    else if (options.workload == "serve_telemetry")
      result = run_serve_telemetry(options);
    else if (options.workload == "design_flow")
      result = run_design_flow(options);
    else {
      std::fprintf(stderr, "mcsbench: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
    return report(options, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcsbench: %s\n", e.what());
    return 2;
  }
}
