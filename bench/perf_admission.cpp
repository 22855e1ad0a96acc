// Admission-decision latency benchmark for the open-system controller
// (core/admission.hpp), in three sections:
//
//  1. Arrival latency under steady churn at resident sizes 10..200:
//     every op admits a random candidate and (when admitted) retires a
//     random resident, holding the set near its target size. Each
//     incremental try_admit is timed against a from-scratch
//     admission_check over the identical set-plus-candidate, and the two
//     verdicts are asserted bit-identical (verdict_equal) — a mismatch
//     fails the run (exit 1), so this doubles as a live oracle check on
//     whatever machine it is benchmarked on.
//  2. Departure latency of the same churn: each remove() takes the
//     departed task's demand off the exact profile.
//  3. A rate summary (decisions/sec) per resident size.
//
// Latencies are per-op wall-clock samples collected in ReservoirSamplers
// and reported as p50/p99. bench/RESULTS_admission.md records reference
// numbers; the headline contract is incremental p50 >= 5x faster than
// from-scratch at 50+ residents.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/reservoir.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/admission.hpp"
#include "mc/task.hpp"
#include "mc/taskset.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// One random open-system candidate, scaled so a resident set of size
/// `residents` settles near 70% LO utilization: per-task u drawn
/// uniform(0.4, 1.0) * 0.9 / residents, log-uniform periods spanning two
/// decades, 30% HC tasks with inflated C^HI, 30% constrained deadlines
/// (these give the demand scan a non-trivial horizon).
mcs::mc::McTask random_task(mcs::common::Rng& rng, std::uint64_t serial,
                            std::size_t residents) {
  const double util =
      rng.uniform(0.4, 1.0) * 0.9 / static_cast<double>(residents);
  const double period = std::pow(10.0, rng.uniform(1.0, 3.0));
  const double wcet_lo = util * period;
  std::string name = "t";
  name += std::to_string(serial);
  mcs::mc::McTask task =
      rng.bernoulli(0.3)
          ? mcs::mc::McTask::high(name, wcet_lo,
                                  wcet_lo * rng.uniform(1.2, 2.0), period)
          : mcs::mc::McTask::low(name, wcet_lo, period);
  if (rng.bernoulli(0.3)) {
    const double deadline =
        std::max(task.wcet_hi, period * rng.uniform(0.85, 1.0));
    task = task.with_deadline(deadline);
  }
  return task;
}

struct ChurnResult {
  std::size_t resident_count = 0;  ///< set size the churn ran at
  std::uint64_t decisions = 0;     ///< timed try_admit calls
  double inc_p50 = 0.0, inc_p99 = 0.0;      ///< try_admit, us
  double scratch_p50 = 0.0, scratch_p99 = 0.0;  ///< admission_check, us
  double depart_p50 = 0.0, depart_p99 = 0.0;    ///< remove(), us
  double inc_seconds = 0.0;   ///< summed incremental decision time
  std::uint64_t mismatches = 0;
  std::uint64_t departures = 0;
};

/// Fills a controller to `target` residents, then runs `ops` churn steps
/// (admit one candidate; on success retire a uniformly random resident).
/// A mirror vector applies the identical decisions so the from-scratch
/// oracle always sees the exact resident set in admission order.
ChurnResult run_churn(std::size_t target, std::uint64_t ops) {
  mcs::core::AdmissionController controller;
  mcs::common::Rng rng(mcs::common::index_seed(7100, target));
  std::vector<mcs::mc::McTask> mirror;
  std::vector<std::uint64_t> ids;  // admission order, parallel to mirror
  std::uint64_t serial = 0;

  // Fill phase (untimed): rejections near saturation are expected; cap
  // the attempts so an unlucky stream cannot loop forever.
  std::uint64_t attempts = 0;
  while (controller.resident_count() < target && attempts < 100 * target) {
    ++attempts;
    const mcs::mc::McTask task = random_task(rng, serial++, target);
    const mcs::core::AdmissionController::Decision d =
        controller.try_admit(task);
    if (d.admitted) {
      mirror.push_back(task);
      ids.push_back(d.id);
    }
  }

  const std::uint64_t seed = mcs::common::index_seed(7200, target);
  mcs::common::ReservoirSampler inc(4096, seed);
  mcs::common::ReservoirSampler scratch(4096, seed + 1);
  mcs::common::ReservoirSampler depart(4096, seed + 2);
  ChurnResult out;
  out.resident_count = controller.resident_count();
  const std::uint64_t departures_before = controller.stats().departures;

  for (std::uint64_t op = 0; op < ops; ++op) {
    const mcs::mc::McTask task = random_task(rng, serial++, target);
    // Build the oracle's set outside the timed regions: only analysis
    // cost is compared, not container assembly.
    mcs::mc::TaskSet oracle_set(mirror);
    oracle_set.add(task);

    const Clock::time_point t0 = Clock::now();
    const mcs::core::AdmissionController::Decision d =
        controller.try_admit(task);
    const double inc_us = elapsed_us(t0);
    inc.add(inc_us);
    out.inc_seconds += inc_us * 1e-6;
    ++out.decisions;

    const Clock::time_point t1 = Clock::now();
    const mcs::core::AdmissionVerdict reference =
        mcs::core::admission_check(oracle_set);
    scratch.add(elapsed_us(t1));
    if (!mcs::core::verdict_equal(d.verdict, reference)) {
      ++out.mismatches;
      std::fprintf(stderr,
                   "VERDICT MISMATCH at size %zu op %llu: incremental "
                   "{adm=%d x=%.17g dbf=%d inc=%d} scratch "
                   "{adm=%d x=%.17g dbf=%d inc=%d}\n",
                   target, static_cast<unsigned long long>(op),
                   d.verdict.admitted, d.verdict.vd.x,
                   d.verdict.dbf_schedulable, d.verdict.dbf_inconclusive,
                   reference.admitted, reference.vd.x,
                   reference.dbf_schedulable, reference.dbf_inconclusive);
    }

    if (d.admitted) {
      mirror.push_back(task);
      ids.push_back(d.id);
      const std::uint64_t victim = rng.uniform_u64(0, ids.size() - 1);
      const Clock::time_point t2 = Clock::now();
      controller.remove(ids[victim]);
      depart.add(elapsed_us(t2));
      mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(victim));
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }

  out.inc_p50 = inc.quantile(0.50);
  out.inc_p99 = inc.quantile(0.99);
  out.scratch_p50 = scratch.quantile(0.50);
  out.scratch_p99 = scratch.quantile(0.99);
  out.depart_p50 = depart.quantile(0.50);
  out.depart_p99 = depart.quantile(0.99);
  out.departures = controller.stats().departures - departures_before;
  return out;
}

struct JsonRecord {
  std::string section;
  std::size_t residents = 0;
  std::string mode;
  std::uint64_t ops = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

std::vector<JsonRecord>& json_records() {
  static std::vector<JsonRecord> records;
  return records;
}

std::string render_json(bool all_matched) {
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"perf_admission\",\n"
      << "  \"all_matched\": " << (all_matched ? "true" : "false") << ",\n"
      << "  \"results\": [\n";
  const std::vector<JsonRecord>& records = json_records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    out << "    {\"section\": \"" << r.section
        << "\", \"residents\": " << r.residents << ", \"mode\": \""
        << r.mode << "\", \"ops\": " << r.ops << ", \"p50_us\": " << r.p50_us
        << ", \"p99_us\": " << r.p99_us << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string format_fixed(double value, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t ops = 800;
  std::string json_path;
  mcs::common::Cli cli(
      "Admission-decision latency benchmark: incremental try_admit vs. "
      "from-scratch admission_check under steady churn, with a live "
      "bit-identity check between the two verdicts");
  cli.add_u64("ops", &ops, "churn operations per resident-set size");
  cli.add_string("json", &json_path,
                 "also write the results as JSON to this path (CI artifact)");
  if (!cli.parse(argc, argv)) return 1;
  if (ops == 0) ops = 1;

  const std::vector<std::size_t> sizes = {10, 50, 100, 200};
  std::uint64_t mismatches = 0;

  // Section 1: arrival latency, incremental vs. from-scratch.
  mcs::common::Table arrival_table(
      {"residents", "ops", "incremental p50 (us)", "p99",
       "from-scratch p50 (us)", "p99", "speedup p50", "verdicts"});
  arrival_table.set_title("arrival decision latency (" +
                          std::to_string(ops) + " churn ops/size)");
  std::vector<ChurnResult> runs;
  for (const std::size_t size : sizes) {
    const ChurnResult r = run_churn(size, ops);
    mismatches += r.mismatches;
    runs.push_back(r);
    const double speedup =
        r.inc_p50 > 0.0 ? r.scratch_p50 / r.inc_p50 : 0.0;
    arrival_table.add_row(
        {std::to_string(r.resident_count), std::to_string(r.decisions),
         format_fixed(r.inc_p50, 2), format_fixed(r.inc_p99, 2),
         format_fixed(r.scratch_p50, 2), format_fixed(r.scratch_p99, 2),
         format_fixed(speedup, 1) + "x",
         r.mismatches == 0 ? "match" : "MISMATCH"});
    json_records().push_back({"arrival", r.resident_count, "incremental",
                              r.decisions, r.inc_p50, r.inc_p99});
    json_records().push_back({"arrival", r.resident_count, "scratch",
                              r.decisions, r.scratch_p50, r.scratch_p99});
  }
  std::fputs(arrival_table.render().c_str(), stdout);

  // Section 2: departure latency of the same churn.
  mcs::common::Table depart_table(
      {"residents", "departures", "p50 (us)", "p99"});
  depart_table.set_title("departure latency (demand taken off the profile)");
  for (const ChurnResult& r : runs) {
    depart_table.add_row({std::to_string(r.resident_count),
                          std::to_string(r.departures),
                          format_fixed(r.depart_p50, 2),
                          format_fixed(r.depart_p99, 2)});
    json_records().push_back({"departure", r.resident_count, "incremental",
                              r.departures, r.depart_p50, r.depart_p99});
  }
  std::printf("\n%s", depart_table.render().c_str());

  // Section 3: sustained decision rate (timed try_admit calls only).
  mcs::common::Table rate_table({"residents", "decisions", "decisions/sec"});
  rate_table.set_title("sustained incremental decision rate");
  for (const ChurnResult& r : runs) {
    const double rate = r.inc_seconds > 0.0
                            ? static_cast<double>(r.decisions) / r.inc_seconds
                            : 0.0;
    rate_table.add_row({std::to_string(r.resident_count),
                        std::to_string(r.decisions), format_fixed(rate, 0)});
  }
  std::printf("\n%s", rate_table.render().c_str());

  if (!json_path.empty()) {
    std::ofstream json_out(json_path);
    json_out << render_json(mismatches == 0);
    std::printf("\nJSON written to %s\n", json_path.c_str());
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu incremental/from-scratch verdict mismatches\n",
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  std::printf("\nall incremental verdicts matched from-scratch recomputes\n");
  return 0;
}
