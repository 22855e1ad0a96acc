// serve_churn: admission-bound write traffic. One connection drives a
// `mcs-cli serve --listen --admission=demand` server (one core, eager
// departures) in strict request->reply order: every admit of a fresh task
// is followed, on `ok`, by the removal of a seeded-random resident, so the
// resident set holds at kResidents tasks. Every kProbeEvery-th arrival is
// a demand probe instead, removed again when admitted.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/net.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/partitioned_admission.hpp"
#include "core/serve.hpp"
#include "server.hpp"
#include "workloads.hpp"

namespace mcsbench {

namespace {

namespace core = mcs::core;
namespace mc = mcs::mc;
using mcs::common::index_seed;
using mcs::common::Rng;

constexpr std::size_t kResidents = 100;
constexpr std::size_t kAdmitsPerRound = 1000;
/// Regular candidates draw utilization 0.7 / kResidents on average, so
/// the resident set holds near 70% LO utilization and every admission is
/// followed by an eager departure rescan. One arrival in four is
/// oversized (utilization 0.4-0.5): it is rejected by the base test and
/// escalates to the demand search, whose grid points all stop at the
/// LO-overload precheck. A set held right at the limit would make some
/// demand searches cost tens of ms, in numbers that vary too much from
/// seed to seed.
constexpr double kOversizedShare = 0.25;
/// The demand probes: HC tasks with C^LO at 3-5% and C^HI at 45-55% of
/// the period. They keep the LO-mode set feasible but fail Eq. 8, so the
/// demand search runs its dbf scans over the grid; most probes are
/// admitted that way (a demand flip) and removed again at once. A fixed
/// 20 probes per round keeps the scan time a steady ~5% of a round.
constexpr std::size_t kProbeEvery = 50;
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

struct Candidate {
  mc::McTask task;
  std::string line;
  bool probe = false;
};

Candidate make_task(std::size_t serial, bool hc, double wcet_lo,
                    double wcet_hi, double period, double deadline) {
  std::string name = "t";  // not "t" + ...: GCC 12 -Wrestrict false positive
  name += std::to_string(serial);
  Candidate c{hc ? mc::McTask::high(name, wcet_lo, wcet_hi, period)
                 : mc::McTask::low(name, wcet_lo, period),
              "admit name=" + name + (hc ? " crit=HC" : " crit=LC") +
                  " wcet_lo=" + exact(wcet_lo) +
                  (hc ? " wcet_hi=" + exact(wcet_hi) : "") +
                  " period=" + exact(period)};
  if (deadline > 0.0) {
    c.task.deadline_override = deadline;
    c.line += " deadline=" + exact(deadline);
  }
  return c;
}

/// perf_admission's arrival shape: log-uniform periods over two decades,
/// 30% HC tasks with inflated C^HI, 30% constrained deadlines.
Candidate make_candidate(Rng& rng, std::size_t serial, bool may_oversize) {
  double util = rng.uniform(0.4, 1.0) / static_cast<double>(kResidents);
  if (may_oversize && rng.bernoulli(kOversizedShare))
    util = rng.uniform(0.4, 0.5);
  const double period = std::pow(10.0, rng.uniform(1.0, 3.0));
  const double wcet_lo = util * period;
  const bool hc = rng.bernoulli(0.3);
  const double wcet_hi = hc ? wcet_lo * rng.uniform(1.2, 2.0) : wcet_lo;
  const double deadline =
      rng.bernoulli(0.3) ? std::max(wcet_hi, period * rng.uniform(0.85, 1.0))
                         : 0.0;
  return make_task(serial, hc, wcet_lo, wcet_hi, period, deadline);
}

Candidate make_probe(Rng& rng, std::size_t serial) {
  const double period = std::pow(10.0, rng.uniform(1.0, 3.0));
  const double wcet_lo = rng.uniform(0.03, 0.05) * period;
  const double wcet_hi = rng.uniform(0.45, 0.55) * period;
  Candidate c = make_task(serial, true, wcet_lo, wcet_hi, period, 0.0);
  c.probe = true;
  return c;
}

/// The seeded inputs: fill candidates (regular only), then the timed
/// arrival stream.
struct Inputs {
  std::vector<Candidate> fill;
  std::vector<Candidate> stream;
  [[nodiscard]] const Candidate& at(std::size_t index) const {
    return index < fill.size() ? fill[index] : stream[index - fill.size()];
  }
};

core::AdmissionController::Config admission_config() {
  core::AdmissionController::Config config;
  config.backend = core::AdmissionBackend::kDemand;
  config.eager_departure_rebuild = true;
  return config;
}

/// One request of a round and what it asks of the admission layer.
struct Request {
  std::string line;
  std::size_t candidate = kNone;  ///< admit: index into the candidates
  std::uint64_t id = 0;           ///< remove: resident id
};

struct Round {
  std::vector<Request> requests;
  std::vector<std::string> replies;
  std::size_t timed_begin = 0;  ///< requests [timed_begin, timed_end) are
  std::size_t timed_end = 0;    ///< the timed phase
  std::vector<double> latency_ms;
  double setup_s = 0.0;
  double timed_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
};

bool is_ok_admit(const std::string& reply) {
  return reply.rfind("ok admit ", 0) == 0;
}

Round run_round(const Options& options, const Inputs& inputs) {
  Round round;
  const Clock::time_point launch = Clock::now();
  ServerProcess server(options.server, {"--admission=demand", "--jobs=1"});
  Connection conn(server.port());
  auto exchange = [&](Request request) -> const std::string& {
    conn.send(request.line + "\n");
    round.requests.push_back(std::move(request));
    round.replies.push_back(conn.read_line());
    return round.replies.back();
  };

  std::vector<std::uint64_t> residents;
  std::size_t next = 0;
  while (residents.size() < kResidents) {
    if (next == inputs.fill.size())
      throw std::runtime_error("fill candidates exhausted");
    const std::size_t c = next++;
    const std::string& reply = exchange({inputs.fill[c].line, c, 0});
    if (is_ok_admit(reply)) residents.push_back(reply_u64(reply, "id"));
  }
  exchange({"stats"});
  round.setup_s = seconds_since(launch);

  Rng pick(index_seed(options.seed, 2));
  const double cpu_before = cpu_seconds(server.pid());
  round.timed_begin = round.requests.size();
  const Clock::time_point start = Clock::now();
  for (std::size_t a = 0; a < inputs.stream.size(); ++a) {
    const std::size_t c = inputs.fill.size() + a;
    Clock::time_point sent = Clock::now();
    const bool admitted = is_ok_admit(exchange({inputs.at(c).line, c, 0}));
    round.latency_ms.push_back(1e3 * seconds_since(sent));
    if (!admitted) continue;
    std::uint64_t id = reply_u64(round.replies.back(), "id");
    if (!inputs.stream[a].probe) {
      residents.push_back(id);
      const std::size_t victim =
          static_cast<std::size_t>(pick.uniform_u64(0, residents.size() - 1));
      id = residents[victim];
      residents[victim] = residents.back();
      residents.pop_back();
    }
    sent = Clock::now();
    exchange({"remove id=" + std::to_string(id), kNone, id});
    round.latency_ms.push_back(1e3 * seconds_since(sent));
  }
  round.timed_s = seconds_since(start);
  round.timed_end = round.requests.size();
  round.cpu_s = cpu_seconds(server.pid()) - cpu_before;
  exchange({"stats"});
  round.rss_mb = peak_rss_mb(server.pid());
  exchange({"shutdown"});
  if (!server.wait(10.0))
    throw std::runtime_error("server did not exit cleanly after shutdown");
  return round;
}

/// Per-layer breakdown from in-process replays of the reference round.
void trace_layers(const Round& ref, const std::vector<Round>& rounds,
                  const Inputs& inputs, Result* result) {
  const std::size_t ops = ref.timed_end - ref.timed_begin;
  const auto fresh_session = [&] {
    auto session = std::make_unique<core::ServeSession>(
        core::ServeSession::Config{admission_config()});
    for (std::size_t i = 0; i < ref.timed_begin; ++i)
      (void)session->handle_line(ref.requests[i].line);
    return session;
  };
  constexpr int kRepeats = 4;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> self_us;
  std::vector<double> admission_share;
  std::vector<double> admit_us;
  std::vector<double> remove_us;
  core::AdmissionController::Stats before{};
  core::AdmissionController::Stats after{};
  // The session alone, with or without per-request spans (kept in
  // memory, as a tracer would); returns the pass's wall time.
  const auto session_pass = [&](bool traced) {
    const auto session = fresh_session();
    std::vector<double> spans;
    spans.reserve(traced ? ops : 0);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = ref.timed_begin; i < ref.timed_end; ++i) {
      if (!traced) {
        (void)session->handle_line(ref.requests[i].line);
        continue;
      }
      const Clock::time_point s = Clock::now();
      (void)session->handle_line(ref.requests[i].line);
      spans.push_back(seconds_since(s));
    }
    return seconds_since(t0);
  };
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const bool traced : {rep % 2 == 1, rep % 2 == 0})
      (traced ? traced_s : untraced_s).push_back(session_pass(traced));
    // The layer split: each request through the session, then the same
    // decision through a standalone PartitionedAdmission, so both spans
    // see the same host state.
    const auto session = fresh_session();
    core::PartitionedAdmission front(core::PartitionedAdmission::Config{
        1, mcs::sched::PartitionHeuristic::kFirstFit, admission_config()});
    for (std::size_t i = 0; i < ref.timed_begin; ++i)
      if (ref.requests[i].candidate != kNone)
        (void)front.try_admit(inputs.at(ref.requests[i].candidate).task);
    before = front.controller(0).stats();
    double session_s = 0.0;
    double admission_s = 0.0;
    for (std::size_t i = ref.timed_begin; i < ref.timed_end; ++i) {
      const Request& request = ref.requests[i];
      const Clock::time_point t0 = Clock::now();
      (void)session->handle_line(request.line);
      const Clock::time_point t1 = Clock::now();
      bool agrees = true;
      if (request.candidate != kNone)
        agrees = front.try_admit(inputs.at(request.candidate).task).admitted ==
                 is_ok_admit(ref.replies[i]);
      else
        agrees = front.remove(request.id);
      const Clock::time_point t2 = Clock::now();
      session_s += seconds_between(t0, t1);
      admission_s += seconds_between(t1, t2);
      (request.candidate != kNone ? admit_us : remove_us)
          .push_back(1e6 * seconds_between(t1, t2));
      if (!agrees)
        result->fail(1, "standalone admission disagrees with the server on "
                        "request " + std::to_string(i));
    }
    after = front.controller(0).stats();
    self_us.push_back(1e6 * (session_s - admission_s) /
                      static_cast<double>(ops));
    admission_share.push_back(admission_s / session_s);
  }

  // Cross-check the replayed counters against the live server's stats.
  using S = core::AdmissionController::Stats;
  const std::pair<const char*, std::uint64_t S::*> counters[] = {
      {"arrivals", &S::arrivals},         {"rejected", &S::rejected},
      {"departures", &S::departures},     {"full_scans", &S::full_scans},
      {"append_scans", &S::append_scans},
      {"shortcut_departures", &S::shortcut_departures}};
  const std::string& live0 = ref.replies[ref.timed_begin - 1];
  const std::string& live1 = ref.replies[ref.timed_end];
  for (const auto& [key, field] : counters)
    if (reply_u64(live1, key) - reply_u64(live0, key) !=
        after.*field - before.*field)
      result->fail(1, std::string("replayed ") + key +
                          " differs from the live server's stats");

  // Framing: the request bytes as the server's LineBuffer receives them,
  // one write per request.
  std::vector<std::string> wire;
  for (std::size_t i = ref.timed_begin; i < ref.timed_end; ++i)
    wire.push_back(ref.requests[i].line + "\n");
  constexpr int kFrameRepeats = 20;
  std::string line;
  const Clock::time_point f0 = Clock::now();
  for (int rep = 0; rep < kFrameRepeats; ++rep) {
    mcs::common::net::LineBuffer buffer;
    for (const std::string& bytes : wire) {
      buffer.feed(bytes.data(), bytes.size());
      while (buffer.next(&line)) {
      }
    }
  }
  const double frame_ns =
      1e9 * seconds_since(f0) / static_cast<double>(kFrameRepeats * ops);

  double cpu_s = 0.0;
  std::uint64_t live_ops = 0;
  for (std::size_t i = kWarmupRounds; i < rounds.size(); ++i) {
    cpu_s += rounds[i].cpu_s;
    live_ops += rounds[i].timed_end - rounds[i].timed_begin;
  }
  const double server_us = 1e6 * cpu_s / static_cast<double>(live_ops);
  result->layer("serve.server_cpu_us_per_op", server_us, "us");
  result->layer("net.transport_us_per_op",
                server_us - 1e6 * min_of(untraced_s) /
                                static_cast<double>(ops),
                "us");
  result->layer("net.frame_ns_per_line", frame_ns, "ns");
  result->layer("serve.self_us_per_op", median(self_us), "us");
  result->layer("admission.admit_us.p50", percentile(admit_us, 0.5), "us");
  result->layer("admission.admit_us.p99", percentile(admit_us, 0.99), "us");
  result->layer("admission.remove_us.p50", percentile(remove_us, 0.5), "us");
  result->layer("admission.remove_us.p99", percentile(remove_us, 0.99), "us");
  const auto delta = [&](std::uint64_t S::*f) {
    return static_cast<double>(after.*f - before.*f);
  };
  result->layer("admission.full_scans", delta(&S::full_scans), "count");
  result->layer("admission.append_scans", delta(&S::append_scans), "count");
  result->layer("admission.shortcut_departures",
                delta(&S::shortcut_departures), "count");
  result->layer("admission.demand_searches", delta(&S::demand_searches),
                "count");
  result->layer("admission.reject_share",
                delta(&S::rejected) / delta(&S::arrivals), "ratio");
  result->layer("admission.demand_flip_share",
                delta(&S::demand_searches) > 0.0
                    ? delta(&S::demand_admissions) / delta(&S::demand_searches)
                    : 0.0,
                "ratio");
  result->layer("admission.session_share", median(admission_share),
                "ratio");
  // Minimum over the repeats: both sides time identical work, so the
  // fastest pass carries the least host noise.
  result->layer("trace.overhead_share",
                min_of(traced_s) / min_of(untraced_s) - 1.0, "ratio");
}

}  // namespace

Result run_serve_churn(const Options& options) {
  Result result;
  Rng rng(index_seed(options.seed, 1));
  Inputs inputs;
  Fnv hash;
  std::size_t serial = 0;
  for (; serial < 2 * kResidents; ++serial) {
    inputs.fill.push_back(make_candidate(rng, serial, false));
    hash.add(inputs.fill.back().line);
  }
  Rng probe_rng(index_seed(options.seed, 3));
  for (std::size_t a = 0; a < kAdmitsPerRound; ++a, ++serial) {
    inputs.stream.push_back(a % kProbeEvery == kProbeEvery - 1
                                ? make_probe(probe_rng, serial)
                                : make_candidate(rng, serial, true));
    hash.add(inputs.stream.back().line);
  }
  result.input_hash = hash.value();

  std::vector<Round> rounds;
  double timed = 0.0;
  while (rounds.size() <= kWarmupRounds || timed < options.seconds) {
    rounds.push_back(run_round(options, inputs));
    if (rounds.size() > kWarmupRounds) timed += rounds.back().timed_s;
  }

  // Output check: every round's transcript must be byte-identical to an
  // in-process ServeSession replay of the reference round's requests.
  const Round& ref = rounds.front();
  core::ServeSession session(core::ServeSession::Config{admission_config()});
  std::vector<std::string> expected;
  Fnv outputs;
  for (const Request& request : ref.requests) {
    expected.push_back(session.handle_line(request.line));
    outputs.add(request.line);
    outputs.add(expected.back());
  }
  result.output_hash = outputs.value();
  const core::AdmissionController::Stats& s = session.front().controller(0).stats();
  result.counts = {{"admission.full_scans", s.full_scans},
                   {"admission.append_scans", s.append_scans},
                   {"admission.shortcut_departures", s.shortcut_departures},
                   {"admission.demand_searches", s.demand_searches}};

  std::vector<double> rss;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const Round& round = rounds[r];
    const std::uint64_t timed_ops = round.timed_end - round.timed_begin;
    result.add_round(timed_ops, round.timed_s, round.latency_ms);
    result.setups_s.push_back(round.setup_s);
    rss.push_back(round.rss_mb);
    const std::string where = "round " + std::to_string(r) + ": ";
    bool setup_ok = round.timed_begin == ref.timed_begin;
    for (std::size_t i = 0; setup_ok && i < round.timed_begin; ++i)
      setup_ok = round.requests[i].line == ref.requests[i].line &&
                 round.replies[i] == expected[i];
    if (!setup_ok) {
      result.fail(timed_ops, where + "set-up transcript differs from replay");
      continue;
    }
    std::uint64_t bad = 0;
    const std::size_t n = std::max(round.requests.size(), ref.requests.size());
    for (std::size_t i = round.timed_begin; i < n; ++i)
      if (i >= round.requests.size() || i >= ref.requests.size() ||
          round.requests[i].line != ref.requests[i].line ||
          round.replies[i] != expected[i] ||
          round.replies[i].rfind("err", 0) == 0)
        ++bad;
    if (bad > 0)
      result.fail(std::min<std::uint64_t>(bad, timed_ops),
                  where + std::to_string(bad) +
                      " replies differ from the in-process replay");
  }
  result.rss_mb = median(rss);
  result.facts = {{"client_threads", "1"},
                  {"server_poll_threads", "1"},
                  {"connections", "1"},
                  {"rounds", std::to_string(rounds.size())},
                  {"residents", std::to_string(kResidents)}};
  if (options.trace) trace_layers(ref, rounds, inputs, &result);
  return result;
}

}  // namespace mcsbench
