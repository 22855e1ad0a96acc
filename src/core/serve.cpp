#include "core/serve.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>

#include "core/chebyshev_wcet.hpp"

namespace mcs::core {

namespace {

/// Splits `line` at whitespace into `tokens`, as views into `line`.
void tokenize(std::string_view line, std::vector<std::string_view>* tokens) {
  tokens->clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_request_space(line[i])) ++i;
    std::size_t j = i;
    while (j < line.size() && !is_request_space(line[j])) ++j;
    if (j > i) tokens->push_back(line.substr(i, j - i));
    i = j;
  }
}

/// Finds `key=` among the argument tokens; returns the value part.
std::optional<std::string_view> find_arg(
    const std::vector<std::string_view>& tokens, std::string_view key) {
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string_view t = tokens[i];
    if (t.size() > key.size() && t[key.size()] == '=' && t.starts_with(key))
      return t.substr(key.size() + 1);
  }
  return std::nullopt;
}

/// Strict-parse outcome of one numeric argument.
enum class Num { kAbsent, kInvalid, kOk };

/// Strictly parses `key=<double>`: strtod's C-locale grammar, the whole
/// value consumed (a NUL byte inside it included), no ERANGE (overflow, or
/// an inexact result below the smallest normal double) and a finite
/// result — "nan", "inf", "1e999", "1e-310", "3.5x", "1\0zz" and "" are
/// all kInvalid, never a silent 0.0.
/// std::from_chars reads a subset of that grammar with the same rounding,
/// so its value is taken when it consumes the whole value with a normal
/// result; everything else (a leading '+', hex floats, zero, subnormals,
/// errors) is decided by strtod.
Num parse_num(const std::vector<std::string_view>& tokens,
              std::string_view key, double* out) {
  const std::optional<std::string_view> raw = find_arg(tokens, key);
  if (!raw) return Num::kAbsent;
  const char* const last = raw->data() + raw->size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(raw->data(), last, v);
  if (ec == std::errc() && ptr == last && std::isnormal(v)) {
    *out = v;
    return Num::kOk;
  }
  // strtod stops at a NUL byte, so a NUL inside the value leaves `end`
  // short of the value's end and the value is invalid.
  const std::string value(*raw);
  errno = 0;
  char* end = nullptr;
  v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || end != value.c_str() + value.size() ||
      errno == ERANGE || !std::isfinite(v))
    return Num::kInvalid;
  *out = v;
  return Num::kOk;
}

/// Strictly parses `key=<positive integer>` (digits only).
Num parse_id(const std::vector<std::string_view>& tokens,
             std::string_view key, std::uint64_t* out) {
  const std::optional<std::string_view> raw = find_arg(tokens, key);
  if (!raw) return Num::kAbsent;
  if (raw->empty() || raw->size() > 19) return Num::kInvalid;
  std::uint64_t v = 0;
  for (const char ch : *raw) {
    if (ch < '0' || ch > '9') return Num::kInvalid;
    v = v * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  if (v == 0) return Num::kInvalid;
  *out = v;
  return Num::kOk;
}

/// Every argument token must be `key=value` with a recognized key;
/// returns the offending token otherwise.
std::optional<std::string_view> unknown_arg(
    const std::vector<std::string_view>& tokens,
    std::initializer_list<std::string_view> allowed) {
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string_view::npos || eq == 0) return tokens[i];
    const std::string_view key = tokens[i].substr(0, eq);
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end())
      return tokens[i];
  }
  return std::nullopt;
}

std::string format_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Render one controller's aggregate state the way `stats` reports it.
const char* state_name(const AdmissionVerdict& v) {
  return v.admitted ? "ok"
                    : (v.vd.schedulable && v.dbf_inconclusive
                           ? "inconclusive"
                           : "infeasible");
}

}  // namespace

ServeSession::ServeSession() : ServeSession(Config{}) {}

ServeSession::ServeSession(Config config)
    : config_(config),
      front_(PartitionedAdmission::Config{config.cores, config.placement,
                                          config.admission}) {}

std::string ServeSession::handle_line(std::string_view line) {
  tokenize(line, &tokens_);
  if (tokens_.empty() || tokens_[0][0] == '#') return "";
  // Nothing a client sends may propagate an exception to the transport
  // loop: the strict parsers below reject malformed input with `err`
  // replies, and anything that still throws is downgraded here.
  try {
    return dispatch(tokens_);
  } catch (const std::exception& e) {
    return std::string("err internal ") + e.what();
  } catch (...) {
    return "err internal unknown failure";
  }
}

std::string ServeSession::dispatch(const Tokens& tokens) {
  const std::string_view cmd = tokens[0];
  if (cmd == "admit") return handle_admit(tokens);
  if (cmd == "remove") return handle_remove(tokens);
  if (cmd == "record") return handle_record(tokens);
  // The remaining requests take no arguments at all.
  if (cmd == "tick" || cmd == "stats" || cmd == "ping" || cmd == "version" ||
      cmd == "quit" || cmd == "shutdown") {
    if (tokens.size() > 1)
      return "err " + std::string(cmd) + " takes no arguments";
    if (cmd == "tick") return handle_tick();
    if (cmd == "stats") return handle_stats();
    if (cmd == "ping") return "ok ping";
    if (cmd == "version")
      return "ok version mcs-serve/1 cores=" + std::to_string(front_.cores()) +
             " backend=" + to_string(config_.admission.backend);
    closed_ = true;  // quit | shutdown
    return "ok " + std::string(cmd);
  }
  return "err unknown request '" + std::string(cmd) + "'";
}

std::string ServeSession::handle_admit(const Tokens& tokens) {
  if (const auto bad = unknown_arg(tokens, {"name", "crit", "wcet_lo",
                                            "wcet_hi", "period", "deadline",
                                            "acet", "sigma"}))
    return "err unknown admit argument '" + std::string(*bad) + "'";
  const std::optional<std::string_view> name_arg = find_arg(tokens, "name");
  const std::optional<std::string_view> crit = find_arg(tokens, "crit");
  double wcet_lo = 0.0;
  double period = 0.0;
  const Num got_lo = parse_num(tokens, "wcet_lo", &wcet_lo);
  const Num got_period = parse_num(tokens, "period", &period);
  if (got_lo == Num::kInvalid) return "err invalid number for 'wcet_lo'";
  if (got_period == Num::kInvalid) return "err invalid number for 'period'";
  if (!name_arg || name_arg->empty() || !crit || got_lo == Num::kAbsent ||
      got_period == Num::kAbsent)
    return "err admit requires name= crit= wcet_lo= period=";
  const std::string name(*name_arg);
  if (by_name_.contains(name))
    return "err name '" + name + "' already resident";

  mc::McTask task;
  if (*crit == "HC") {
    double wcet_hi = 0.0;
    const Num got_hi = parse_num(tokens, "wcet_hi", &wcet_hi);
    if (got_hi == Num::kInvalid) return "err invalid number for 'wcet_hi'";
    if (got_hi == Num::kAbsent) return "err HC admit requires wcet_hi=";
    task = mc::McTask::high(name, wcet_lo, wcet_hi, period);
  } else if (*crit == "LC") {
    task = mc::McTask::low(name, wcet_lo, period);
  } else {
    return "err crit must be HC or LC";
  }
  double deadline = 0.0;
  switch (parse_num(tokens, "deadline", &deadline)) {
    case Num::kOk: task.deadline_override = deadline; break;
    case Num::kInvalid: return "err invalid number for 'deadline'";
    case Num::kAbsent: break;
  }
  double acet = 0.0;
  double sigma = 0.0;
  const Num got_acet = parse_num(tokens, "acet", &acet);
  const Num got_sigma = parse_num(tokens, "sigma", &sigma);
  if (got_acet == Num::kInvalid) return "err invalid number for 'acet'";
  if (got_sigma == Num::kInvalid) return "err invalid number for 'sigma'";
  const bool has_profile = got_acet == Num::kOk;
  if (has_profile)
    task.stats = mc::ExecutionStats{acet, sigma, nullptr};
  if (!task.valid())
    return "err invalid task parameters for '" + name + "'";

  const PartitionedAdmission::Decision decision = front_.try_admit(task);
  const bool multicore = front_.cores() > 1;
  if (!decision.admitted) {
    const AdmissionVerdict& v = decision.verdict;
    std::string response =
        "reject admit " + name + " vd=" + (v.vd.schedulable ? "ok" : "fail") +
        " dbf=" + (v.dbf_schedulable
                       ? "ok"
                       : (v.dbf_inconclusive ? "inconclusive" : "fail")) +
        " resident=" + std::to_string(front_.resident_count());
    if (multicore) response += " probes=" + std::to_string(decision.probes);
    return response;
  }
  Entry entry;
  entry.name = name;
  if (task.criticality == mc::Criticality::kHigh && has_profile &&
      acet > 0.0 && sigma >= 0.0) {
    // Seed the drift monitor with the admitted envelope; n is the Eq. 6
    // multiplier implied by C^LO over the declared moments.
    entry.n_design =
        sigma > 0.0 ? std::max(0.0, (wcet_lo - acet) / sigma) : 0.0;
    entry.monitor.emplace(
        std::vector<MonitoredTask>{{acet, sigma, wcet_lo, entry.n_design}},
        config_.moment_tolerance, config_.min_jobs);
  }
  by_name_[name] = decision.id;
  entries_[decision.id] = std::move(entry);
  std::string response =
      "ok admit " + name + " id=" + std::to_string(decision.id);
  if (multicore) response += " core=" + std::to_string(decision.core);
  response += " x=" + format_g(decision.verdict.vd.x);
  if (decision.verdict.demand_admitted)
    response += " demand_x=" + format_g(decision.verdict.demand_x);
  return response +
         " resident=" + std::to_string(front_.resident_count());
}

ServeSession::Entries::iterator ServeSession::resolve(const Tokens& tokens,
                                                      std::string* error) {
  if (const std::optional<std::string_view> name = find_arg(tokens, "name")) {
    const auto it = by_name_.find(std::string(*name));
    if (it == by_name_.end()) {
      *error = "err unknown task '" + std::string(*name) + "'";
      return entries_.end();
    }
    return entries_.find(it->second);
  }
  std::uint64_t id = 0;
  switch (parse_id(tokens, "id", &id)) {
    case Num::kOk: {
      const auto it = entries_.find(id);
      if (it == entries_.end())
        *error = "err unknown id " + std::to_string(id);
      return it;
    }
    case Num::kInvalid:
      *error = "err invalid id '" +
               std::string(find_arg(tokens, "id").value_or("")) + "'";
      return entries_.end();
    case Num::kAbsent:
      break;
  }
  *error = "err request needs a valid name= or id=";
  return entries_.end();
}

std::string ServeSession::handle_remove(const Tokens& tokens) {
  if (const auto bad = unknown_arg(tokens, {"name", "id"}))
    return "err unknown remove argument '" + std::string(*bad) + "'";
  std::string error;
  const auto it = resolve(tokens, &error);
  if (it == entries_.end()) return error;
  const std::uint64_t id = it->first;
  const std::string name = it->second.name;
  front_.remove(id);
  by_name_.erase(name);
  entries_.erase(it);
  return "ok remove " + name + " id=" + std::to_string(id) +
         " resident=" + std::to_string(front_.resident_count());
}

std::string ServeSession::handle_record(const Tokens& tokens) {
  if (const auto bad = unknown_arg(tokens, {"name", "id", "time"}))
    return "err unknown record argument '" + std::string(*bad) + "'";
  std::string error;
  const auto it = resolve(tokens, &error);
  if (it == entries_.end()) return error;
  double time = 0.0;
  switch (parse_num(tokens, "time", &time)) {
    case Num::kInvalid: return "err invalid number for 'time'";
    case Num::kAbsent: return "err record requires time=";
    case Num::kOk: break;
  }
  if (time < 0.0) return "err time must be >= 0";
  Entry& entry = it->second;
  if (!entry.monitor)
    return "err task '" + entry.name + "' is not monitored";
  entry.monitor->record(0, time);
  return "";  // silent: record lines arrive at job rate
}

std::string ServeSession::handle_tick() {
  std::string out;
  std::size_t monitored = 0;
  std::size_t drifted = 0;
  std::size_t applied = 0;
  for (auto& [id, entry] : entries_) {  // id order == admission order
    if (!entry.monitor) continue;
    ++monitored;
    const DriftReport report = entry.monitor->report(0);
    if (!report.reassignment_recommended()) continue;
    ++drifted;
    const mc::McTask* task = front_.find(id);
    // Re-derive C^LO from the observed moments, keeping the design
    // margin n (Eq. 6) and the Eq. 9 clamp against C^HI.
    const double sigma_obs =
        std::isnan(report.observed_sigma) ? 0.0 : report.observed_sigma;
    const double new_wcet = chebyshev_wcet_opt(
        report.observed_acet, sigma_obs, entry.n_design, task->wcet_hi);
    const double old_wcet = task->wcet_lo;
    const PartitionedAdmission::UpdateResult result =
        front_.try_update(id, new_wcet);
    if (result.applied) {
      ++applied;
      if (report.observed_acet > 0.0) {
        const double n =
            sigma_obs > 0.0
                ? std::max(0.0, (new_wcet - report.observed_acet) / sigma_obs)
                : 0.0;
        entry.monitor->rebaseline(
            0, {report.observed_acet, sigma_obs, new_wcet, n});
        entry.n_design = n;
      }
      out += "reopt " + entry.name + " wcet_lo " + format_g(old_wcet) +
             " -> " + format_g(new_wcet) +
             " applied x=" + format_g(result.verdict.vd.x) + "\n";
    } else {
      out += "reopt " + entry.name + " wcet_lo " + format_g(old_wcet) +
             " -> " + format_g(new_wcet) + " rejected";
      out += "\n";
    }
  }
  out += "ok tick monitored=" + std::to_string(monitored) +
         " drifted=" + std::to_string(drifted) +
         " reoptimized=" + std::to_string(applied);
  return out;
}

std::string ServeSession::handle_stats() const {
  if (front_.cores() == 1) {
    // Monolithic stats line, byte-identical to the pre-partitioned
    // service (cli_pipeline.sh replays pin this shape).
    const AdmissionController& c = front_.controller(0);
    const AdmissionController::Stats& s = c.stats();
    const AdmissionVerdict& v = c.current();
    const sched::McUtilization u = c.utilization();
    const std::string demand =
        v.demand_admitted ? " demand_x=" + format_g(v.demand_x) : "";
    return std::string("stats resident=") +
           std::to_string(c.resident_count()) + " state=" + state_name(v) +
           " x=" + format_g(v.vd.x) + demand +
           " u_lc_lo=" + format_g(u.lc_lo) +
           " u_hc_lo=" + format_g(u.hc_lo) +
           " u_hc_hi=" + format_g(u.hc_hi) +
           " arrivals=" + std::to_string(s.arrivals) +
           " admitted=" + std::to_string(s.admitted) +
           " rejected=" + std::to_string(s.rejected) +
           " departures=" + std::to_string(s.departures) +
           " shortcut_departures=" + std::to_string(s.shortcut_departures) +
           " updates=" + std::to_string(s.updates) +
           " updates_rejected=" + std::to_string(s.updates_rejected) +
           " full_scans=" + std::to_string(s.full_scans) +
           " append_scans=" + std::to_string(s.append_scans);
  }

  const PartitionedAdmission::Stats& f = front_.stats();
  std::string out = "stats resident=" +
                    std::to_string(front_.resident_count()) +
                    " cores=" + std::to_string(front_.cores()) +
                    " placement=" +
                    std::string(sched::to_string(config_.placement)) +
                    " arrivals=" + std::to_string(f.arrivals) +
                    " admitted=" + std::to_string(f.admitted) +
                    " rejected=" + std::to_string(f.rejected) +
                    " departures=" + std::to_string(f.departures) +
                    " updates=" + std::to_string(f.updates) +
                    " probes=" + std::to_string(f.probes) +
                    " fallbacks=" + std::to_string(f.fallback_admissions);
  for (std::size_t c = 0; c < front_.cores(); ++c) {
    const AdmissionController& ctrl = front_.controller(c);
    const AdmissionVerdict& v = ctrl.current();
    const sched::McUtilization u = ctrl.utilization();
    out += " core" + std::to_string(c) +
           "=[resident=" + std::to_string(ctrl.resident_count()) +
           " state=" + state_name(v) + " x=" + format_g(v.vd.x) +
           " u_lc_lo=" + format_g(u.lc_lo) +
           " u_hc_lo=" + format_g(u.hc_lo) +
           " u_hc_hi=" + format_g(u.hc_hi) + "]";
  }
  return out;
}

}  // namespace mcs::core
