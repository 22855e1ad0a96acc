// serve_telemetry: the monitoring half of the service. kMonitored HC
// residents with acet=/sigma= profiles are admitted during set-up; then
// kConnections connections stream silent `record` lines for their own
// task subsets in batches closed by a `ping` (each connection sends its
// next batch when its ping is answered). At the end of each period, when
// every ping is answered, connection 0 sends `tick` and `stats`, so every
// tick sees the same state. Every kDrifterEvery-th task alternates between
// two execution-time regimes per period, so each tick after the first
// re-derives those budgets and re-admits them through try_update.
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/net.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"
#include "core/online.hpp"
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

constexpr std::size_t kMonitored = 100;
constexpr std::size_t kConnections = 3;
constexpr std::size_t kDrifterEvery = 6;
constexpr std::size_t kRecordsPerTask = 10;  ///< per task and batch
constexpr std::size_t kBatches = 125;        ///< per connection and period
constexpr std::size_t kPeriods = 3;          ///< tick barriers per round

struct Profile {
  mc::McTask task;  ///< as the server builds it from the admit line
  double acet = 0.0;
  double sigma = 0.0;
  std::string line;
};

struct Record {
  std::uint32_t task = 0;  ///< index into the profiles (id - 1)
  double time = 0.0;       ///< the value the server parses
};

struct Batch {
  std::string wire;  ///< record lines + "ping\n"
  std::vector<Record> records;
};

struct Inputs {
  std::vector<Profile> profiles;
  /// batches[(period * kBatches + b) * kConnections + c]
  std::vector<Batch> batches;
  [[nodiscard]] const Batch& batch(std::size_t p, std::size_t b,
                                   std::size_t c) const {
    return batches[(p * kBatches + b) * kConnections + c];
  }
};

Inputs make_inputs(std::uint64_t seed, Fnv* hash) {
  Inputs in;
  Rng rng(index_seed(seed, 11));
  for (std::size_t k = 0; k < kMonitored; ++k) {
    const double period = std::pow(10.0, rng.uniform(1.0, 3.0));
    const double acet = rng.uniform(0.5, 1.5) * 0.003 * period;
    const double sigma = rng.uniform(0.1, 0.3) * acet;
    const double wcet_lo = acet + 3.0 * sigma;
    const double wcet_hi = wcet_lo * rng.uniform(1.3, 1.8);
    std::string name = "h";  // not "h" + ...: GCC 12 -Wrestrict false positive
    name += std::to_string(k);
    Profile p{mc::McTask::high(name, wcet_lo, wcet_hi, period), acet, sigma,
              "admit name=" + name + " crit=HC wcet_lo=" + exact(wcet_lo) +
                  " wcet_hi=" + exact(wcet_hi) + " period=" + exact(period)};
    if (rng.bernoulli(0.3)) {
      const double deadline =
          std::max(wcet_hi, period * rng.uniform(0.85, 1.0));
      p.task.deadline_override = deadline;
      p.line += " deadline=" + exact(deadline);
    }
    p.task.stats = mc::ExecutionStats{acet, sigma, nullptr};
    p.line += " acet=" + exact(acet) + " sigma=" + exact(sigma);
    hash->add(p.line);
    in.profiles.push_back(std::move(p));
  }

  Rng draws(index_seed(seed, 12));
  char buf[96];
  for (std::size_t period = 0; period < kPeriods; ++period) {
    for (std::size_t b = 0; b < kBatches; ++b) {
      for (std::size_t c = 0; c < kConnections; ++c) {
        Batch batch;
        for (std::size_t r = 0; r < kRecordsPerTask; ++r) {
          for (std::size_t k = c; k < kMonitored; k += kConnections) {
            const Profile& p = in.profiles[k];
            const bool shifted = k % kDrifterEvery == 0 && period % 2 == 1;
            const double mean = shifted ? 1.3 * p.acet : p.acet;
            const double sd = shifted ? 1.2 * p.sigma : p.sigma;
            const double drawn = std::max(0.0, draws.normal(mean, sd));
            std::snprintf(buf, sizeof buf, "%.6g", drawn);
            batch.records.push_back(
                {static_cast<std::uint32_t>(k), std::strtod(buf, nullptr)});
            batch.wire += "record id=" + std::to_string(k + 1) +
                          " time=" + buf + "\n";
          }
        }
        batch.wire += "ping\n";
        hash->add(batch.wire);
        in.batches.push_back(std::move(batch));
      }
    }
  }
  return in;
}

struct Round {
  std::vector<std::string> fill_replies;
  std::vector<std::string> tick_replies;
  std::vector<std::string> stats_replies;
  std::vector<double> latency_ms;
  std::vector<std::string> unexpected;
  std::uint64_t ops = 0;
  double setup_s = 0.0;
  double timed_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
};

/// Sends a request on `conn` and reads its reply; a tick reply spans its
/// `reopt` lines up to the closing `ok tick` (or an `err`).
std::string request(Connection& conn, const std::string& line) {
  conn.send(line + "\n");
  std::string last = conn.read_line();
  std::string reply = last;
  while (last.rfind("reopt ", 0) == 0) {
    last = conn.read_line();
    reply += "\n" + last;
  }
  return reply;
}

Round run_round(const Options& options, const Inputs& in) {
  Round round;
  const Clock::time_point launch = Clock::now();
  ServerProcess server(options.server, {"--jobs=1"});
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < kConnections; ++c)
    conns.push_back(std::make_unique<Connection>(server.port()));
  for (const Profile& p : in.profiles)
    round.fill_replies.push_back(request(*conns[0], p.line));
  round.setup_s = seconds_since(launch);

  const double cpu_before = cpu_seconds(server.pid());
  const Clock::time_point start = Clock::now();
  for (std::size_t period = 0; period < kPeriods; ++period) {
    std::vector<std::size_t> sent(kConnections, 0);
    std::vector<Clock::time_point> sent_at(kConnections);
    auto send_batch = [&](std::size_t c) {
      const Batch& batch = in.batch(period, sent[c]++, c);
      round.ops += batch.records.size() + 1;
      sent_at[c] = Clock::now();
      conns[c]->send(batch.wire);
    };
    std::vector<pollfd> fds;
    for (std::size_t c = 0; c < kConnections; ++c) {
      fds.push_back({conns[c]->fd(), POLLIN, 0});
      send_batch(c);
    }
    std::size_t done = 0;
    std::string line;
    while (done < kConnections) {
      if (::poll(fds.data(), fds.size(), 30000) <= 0)
        throw std::runtime_error("no reply from the server within 30 s");
      for (std::size_t c = 0; c < kConnections; ++c) {
        if (fds[c].revents == 0) continue;
        if (!conns[c]->fill())
          throw std::runtime_error("server closed a connection");
        // Records are silent: any other line before a batch's ping reply
        // is a failure, and so is a ping reply other than "ok ping".
        while (conns[c]->next_line(&line)) {
          if (line != "ok ping") round.unexpected.push_back(line);
          if (line.rfind("ok ping", 0) != 0) continue;
          round.latency_ms.push_back(1e3 * seconds_since(sent_at[c]));
          if (sent[c] < kBatches) {
            send_batch(c);
          } else {
            fds[c].events = 0;
            ++done;
          }
        }
      }
    }
    // Barrier: every ping is answered; the tick sees a serialized state.
    for (const char* req : {"tick", "stats"}) {
      const Clock::time_point t0 = Clock::now();
      std::string reply = request(*conns[0], req);
      round.latency_ms.push_back(1e3 * seconds_since(t0));
      ++round.ops;
      (req[0] == 't' ? round.tick_replies : round.stats_replies)
          .push_back(std::move(reply));
    }
  }
  round.timed_s = seconds_since(start);
  round.cpu_s = cpu_seconds(server.pid()) - cpu_before;
  round.rss_mb = peak_rss_mb(server.pid());
  if (request(*conns[0], "shutdown") != "ok shutdown")
    throw std::runtime_error("unexpected shutdown reply");
  if (!server.wait(10.0))
    throw std::runtime_error("server did not exit cleanly after shutdown");
  return round;
}

std::vector<std::string> split_lines(const std::string& wire) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  for (std::size_t nl; (nl = wire.find('\n', pos)) != std::string::npos;
       pos = nl + 1)
    lines.push_back(wire.substr(pos, nl - pos));
  return lines;
}

std::string format_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// The admission and monitoring layers alone, fed the serialized stream
/// the way ServeSession feeds them.
struct Mirror {
  core::PartitionedAdmission front{core::PartitionedAdmission::Config{}};
  std::vector<core::OnlineMonitor> monitors;
  std::vector<double> n_design;
  std::vector<std::uint64_t> ids;
  double record_s = 0.0;
  double monitor_s = 0.0;  ///< report + rebaseline inside ticks
  double update_s = 0.0;
  std::vector<double> update_us;
  std::uint64_t records = 0;
  std::uint64_t drifted = 0;
  std::uint64_t applied = 0;

  explicit Mirror(const Inputs& in) {
    for (const Profile& p : in.profiles) {
      const core::PartitionedAdmission::Decision d = front.try_admit(p.task);
      ids.push_back(d.id);
      const double n = p.sigma > 0.0
                           ? std::max(0.0, (p.task.wcet_lo - p.acet) / p.sigma)
                           : 0.0;
      n_design.push_back(n);
      const core::ServeSession::Config serve;
      monitors.emplace_back(std::vector<core::MonitoredTask>{
                                {p.acet, p.sigma, p.task.wcet_lo, n}},
                            serve.moment_tolerance, serve.min_jobs);
    }
  }

  void record(const Batch& batch) {
    const Clock::time_point t0 = Clock::now();
    for (const Record& r : batch.records) monitors[r.task].record(0, r.time);
    record_s += seconds_since(t0);
    records += batch.records.size();
  }

  /// ServeSession::handle_tick over the mirror; returns the reply text.
  std::string tick(const Inputs& in) {
    std::string out;
    std::size_t tick_drifted = 0;
    std::size_t tick_applied = 0;
    for (std::size_t k = 0; k < monitors.size(); ++k) {
      Clock::time_point t0 = Clock::now();
      const core::DriftReport report = monitors[k].report(0);
      monitor_s += seconds_since(t0);
      if (!report.reassignment_recommended()) continue;
      ++tick_drifted;
      const mc::McTask* task = front.find(ids[k]);
      const double sigma_obs =
          std::isnan(report.observed_sigma) ? 0.0 : report.observed_sigma;
      const double new_wcet = core::chebyshev_wcet_opt(
          report.observed_acet, sigma_obs, n_design[k], task->wcet_hi);
      const double old_wcet = task->wcet_lo;
      t0 = Clock::now();
      const core::PartitionedAdmission::UpdateResult result =
          front.try_update(ids[k], new_wcet);
      const double us = 1e6 * seconds_since(t0);
      update_us.push_back(us);
      update_s += us / 1e6;
      const std::string head = "reopt " + in.profiles[k].task.name +
                               " wcet_lo " + format_g(old_wcet) + " -> " +
                               format_g(new_wcet);
      if (!result.applied) {
        out += head + " rejected\n";
        continue;
      }
      ++tick_applied;
      if (report.observed_acet > 0.0) {
        const double n =
            sigma_obs > 0.0
                ? std::max(0.0, (new_wcet - report.observed_acet) / sigma_obs)
                : 0.0;
        t0 = Clock::now();
        monitors[k].rebaseline(
            0, {report.observed_acet, sigma_obs, new_wcet, n});
        monitor_s += seconds_since(t0);
        n_design[k] = n;
      }
      out += head + " applied x=" + format_g(result.verdict.vd.x) + "\n";
    }
    drifted += tick_drifted;
    applied += tick_applied;
    return out + "ok tick monitored=" + std::to_string(monitors.size()) +
           " drifted=" + std::to_string(tick_drifted) +
           " reoptimized=" + std::to_string(tick_applied);
  }
};

void trace_layers(const Inputs& in, const std::vector<Round>& rounds,
                  const std::vector<std::string>& expected_ticks,
                  Result* result) {
  // The timed stream, split once: batch_lines[i] holds in.batches[i].
  std::vector<std::vector<std::string>> batch_lines;
  std::uint64_t ops = 0;
  for (const Batch& batch : in.batches) {
    batch_lines.push_back(split_lines(batch.wire));
    ops += batch_lines.back().size();
  }
  ops += 2 * kPeriods;  // tick + stats
  const auto fresh_session = [&] {
    auto session = std::make_unique<core::ServeSession>();
    for (const Profile& p : in.profiles) (void)session->handle_line(p.line);
    return session;
  };
  const auto lines_of = [&](std::size_t p, std::size_t b, std::size_t c)
      -> const std::vector<std::string>& {
    return batch_lines[(p * kBatches + b) * kConnections + c];
  };

  constexpr int kRepeats = 4;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> self_us;
  std::vector<double> admission_share;
  std::vector<double> record_ns;
  std::vector<double> tick_ms;
  std::vector<double> update_us;
  std::uint64_t drifted = 0;
  std::uint64_t applied = 0;
  core::AdmissionController::Stats before{};
  core::AdmissionController::Stats after{};
  // The session alone, with or without spans (one per batch, one per
  // tick and stats); returns the pass's wall time.
  const auto session_pass = [&](bool traced) {
    const auto session = fresh_session();
    std::vector<double> spans;
    const auto span = [&](Clock::time_point start) {
      if (traced) spans.push_back(seconds_since(start));
    };
    const Clock::time_point t0 = Clock::now();
    for (std::size_t p = 0; p < kPeriods; ++p) {
      for (std::size_t b = 0; b < kBatches; ++b)
        for (std::size_t c = 0; c < kConnections; ++c) {
          const Clock::time_point s = traced ? Clock::now() : t0;
          for (const std::string& l : lines_of(p, b, c))
            (void)session->handle_line(l);
          span(s);
        }
      for (const char* request : {"tick", "stats"}) {
        const Clock::time_point s = traced ? Clock::now() : t0;
        (void)session->handle_line(request);
        span(s);
        if (traced && request[0] == 't') tick_ms.push_back(1e3 * spans.back());
      }
    }
    return seconds_since(t0);
  };
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const bool traced : {rep % 2 == 1, rep % 2 == 0})
      (traced ? traced_s : untraced_s).push_back(session_pass(traced));
    // The layer split: each batch and tick through the session, then the
    // same work on the admission/monitor mirror, so both sides see the
    // same host state.
    const auto session = fresh_session();
    Mirror mirror(in);
    before = mirror.front.controller(0).stats();
    double session_s = 0.0;
    for (std::size_t p = 0; p < kPeriods; ++p) {
      for (std::size_t b = 0; b < kBatches; ++b) {
        for (std::size_t c = 0; c < kConnections; ++c) {
          const Clock::time_point t0 = Clock::now();
          for (const std::string& l : lines_of(p, b, c))
            (void)session->handle_line(l);
          session_s += seconds_since(t0);
          mirror.record(in.batch(p, b, c));
        }
      }
      const Clock::time_point t0 = Clock::now();
      (void)session->handle_line("tick");
      (void)session->handle_line("stats");
      session_s += seconds_since(t0);
      if (mirror.tick(in) != expected_ticks[p])
        result->fail(1, "mirrored tick " + std::to_string(p) +
                            " differs from the server's reply");
    }
    after = mirror.front.controller(0).stats();
    self_us.push_back(1e6 *
                      (session_s - mirror.update_s - mirror.record_s -
                       mirror.monitor_s) /
                      static_cast<double>(ops));
    admission_share.push_back(mirror.update_s / session_s);
    record_ns.push_back(1e9 * mirror.record_s /
                        static_cast<double>(mirror.records));
    drifted = mirror.drifted;
    applied = mirror.applied;
    update_us.insert(update_us.end(), mirror.update_us.begin(),
                     mirror.update_us.end());
  }

  // Framing: each connection's byte stream through LineBuffer in the
  // server's 4 KiB reads.
  std::vector<double> frame_ns;
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::uint64_t framed = 0;
    std::string line;
    const Clock::time_point t0 = Clock::now();
    for (const Batch& batch : in.batches) {
      mcs::common::net::LineBuffer buffer;
      for (std::size_t off = 0; off < batch.wire.size(); off += 4096) {
        buffer.feed(batch.wire.data() + off,
                    std::min<std::size_t>(4096, batch.wire.size() - off));
        while (buffer.next(&line)) ++framed;
      }
    }
    frame_ns.push_back(1e9 * seconds_since(t0) / static_cast<double>(framed));
  }

  double cpu_s = 0.0;
  std::uint64_t live_ops = 0;
  for (std::size_t i = kWarmupRounds; i < rounds.size(); ++i) {
    cpu_s += rounds[i].cpu_s;
    live_ops += rounds[i].ops;
  }
  const double server_us = 1e6 * cpu_s / static_cast<double>(live_ops);
  result->layer("serve.server_cpu_us_per_op", server_us, "us");
  result->layer("net.transport_us_per_op",
                server_us - 1e6 * min_of(untraced_s) /
                                static_cast<double>(ops),
                "us");
  result->layer("net.frame_ns_per_line", min_of(frame_ns), "ns");
  result->layer("serve.self_us_per_op", median(self_us), "us");
  result->layer("admission.update_us.p50", percentile(update_us, 0.5), "us");
  result->layer("admission.update_us.p99", percentile(update_us, 0.99), "us");
  result->layer("admission.full_scans",
                static_cast<double>(after.full_scans - before.full_scans),
                "count");
  result->layer("admission.append_scans",
                static_cast<double>(after.append_scans - before.append_scans),
                "count");
  result->layer("admission.session_share", median(admission_share), "ratio");
  result->layer("online.record_ns", median(record_ns), "ns");
  result->layer("online.tick_ms.p50", percentile(tick_ms, 0.5), "ms");
  result->layer("online.tick_ms.p99", percentile(tick_ms, 0.99), "ms");
  result->layer("online.drifted", static_cast<double>(drifted), "count");
  result->layer("online.reopt_applied_share",
                drifted > 0 ? static_cast<double>(applied) /
                                  static_cast<double>(drifted)
                            : 0.0,
                "ratio");
  // Minimum over the repeats: both sides time identical work, so the
  // fastest pass carries the least host noise.
  result->layer("trace.overhead_share",
                min_of(traced_s) / min_of(untraced_s) - 1.0, "ratio");
}

}  // namespace

Result run_serve_telemetry(const Options& options) {
  Result result;
  Fnv inputs_hash;
  const Inputs in = make_inputs(options.seed, &inputs_hash);
  result.input_hash = inputs_hash.value();

  std::vector<Round> rounds;
  double timed = 0.0;
  while (rounds.size() <= kWarmupRounds || timed < options.seconds) {
    rounds.push_back(run_round(options, in));
    if (rounds.size() > kWarmupRounds) timed += rounds.back().timed_s;
  }

  // Output check: the barrier-serialized in-process replay. Records are
  // silent, pings answer `ok ping`, and every round's fill, tick and stats
  // replies must match the replay byte for byte.
  core::ServeSession session;
  std::vector<std::string> fill;
  std::vector<std::string> ticks;
  std::vector<std::string> stats;
  Fnv outputs;
  std::uint64_t replay_errors = 0;
  for (const Profile& p : in.profiles) {
    fill.push_back(session.handle_line(p.line));
    outputs.add(fill.back());
    if (fill.back().rfind("ok admit ", 0) != 0) ++replay_errors;
  }
  std::uint64_t drifted = 0;
  for (std::size_t p = 0; p < kPeriods; ++p) {
    for (std::size_t b = 0; b < kBatches; ++b)
      for (std::size_t c = 0; c < kConnections; ++c)
        for (const std::string& l : split_lines(in.batch(p, b, c).wire)) {
          const std::string reply = session.handle_line(l);
          if (reply != (l == "ping" ? "ok ping" : "")) ++replay_errors;
        }
    ticks.push_back(session.handle_line("tick"));
    stats.push_back(session.handle_line("stats"));
    outputs.add(ticks.back());
    outputs.add(stats.back());
    drifted += reply_u64(ticks.back().substr(ticks.back().rfind('\n') + 1),
                         "drifted");
  }
  result.output_hash = outputs.value();
  const core::AdmissionController::Stats& s =
      session.front().controller(0).stats();
  result.counts = {{"online.drifted", drifted},
                   {"admission.full_scans", s.full_scans},
                   {"admission.append_scans", s.append_scans}};
  if (replay_errors > 0)
    result.fail(replay_errors, "the replayed stream itself yields errors");

  std::vector<double> rss;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const Round& round = rounds[r];
    result.add_round(round.ops, round.timed_s, round.latency_ms);
    result.setups_s.push_back(round.setup_s);
    rss.push_back(round.rss_mb);
    const std::string where = "round " + std::to_string(r) + ": ";
    if (round.fill_replies != fill) {
      result.fail(round.ops, where + "fill replies differ from the replay");
      continue;
    }
    if (!round.unexpected.empty())
      result.fail(round.unexpected.size(),
                  where + "unexpected reply '" + round.unexpected.front() +
                      "'");
    for (std::size_t p = 0; p < kPeriods; ++p) {
      if (round.tick_replies[p] != ticks[p])
        result.fail(1, where + "tick " + std::to_string(p) +
                           " differs from the replay");
      if (round.stats_replies[p] != stats[p])
        result.fail(1, where + "stats " + std::to_string(p) +
                           " differs from the replay");
    }
  }
  result.rss_mb = median(rss);
  result.facts = {{"client_threads", "1"},
                  {"server_poll_threads", "1"},
                  {"connections", std::to_string(kConnections)},
                  {"rounds", std::to_string(rounds.size())},
                  {"residents", std::to_string(kMonitored)}};
  if (options.trace) trace_layers(in, rounds, ticks, &result);
  return result;
}

}  // namespace mcsbench
