#include "core/serve.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/chebyshev_wcet.hpp"

namespace mcs::core {

namespace {

/// The protocol's argument keys, spelled in kKeyNames: the keys with
/// text values first, then the keys with number values.
enum Key : unsigned {
  kName, kCrit, kId,
  kWcetLo, kWcetHi, kPeriod, kDeadline, kAcet, kSigma, kTime,
  kKeyCount
};
constexpr unsigned kTextKeys = kWcetLo;
constexpr std::array<std::string_view, kKeyCount> kKeyNames = {
    "name", "crit", "id", "wcet_lo", "wcet_hi",
    "period", "deadline", "acet", "sigma", "time"};

constexpr unsigned bit(Key k) { return 1U << k; }
/// The keys each verb takes.
constexpr unsigned kAdmitKeys = bit(kName) | bit(kCrit) | bit(kWcetLo) |
                                bit(kWcetHi) | bit(kPeriod) | bit(kDeadline) |
                                bit(kAcet) | bit(kSigma);
constexpr unsigned kRemoveKeys = bit(kName) | bit(kId);
constexpr unsigned kRecordKeys = bit(kName) | bit(kId) | bit(kTime);

/// The key spelled `key` (case-sensitive), or kKeyCount for none.
Key key_of(std::string_view key) {
  for (unsigned k = 0; k < kKeyCount; ++k)
    if (kKeyNames[k] == key) return static_cast<Key>(k);
  return kKeyCount;
}

const char* skip_space(const char* p, const char* end) {
  while (p != end && is_request_space(*p)) ++p;
  return p;
}

const char* token_end(const char* p, const char* end) {
  while (p != end && !is_request_space(*p)) ++p;
  return p;
}

/// Strictly parses the number that starts at `value`, in the token that
/// ends at the first whitespace byte or `end`; returns the token's end
/// and whether the value is a number. The rule is strtod's C-locale
/// grammar, the whole value consumed (a NUL byte inside it included), no
/// ERANGE (overflow, or an inexact result below the smallest normal
/// double) and a finite result — "nan", "inf", "1e999", "1e-310", "3.5x",
/// "1\0zz" and "" all fail, never a silent 0.0.
/// std::from_chars reads a subset of that grammar with the same rounding
/// and stops where that subset stops, which is at the token's end for a
/// plain decimal: its value is taken when it reads the whole value to a
/// normal double. Everything else (a leading '+', hex floats, zero,
/// subnormals, errors, trailing junk) is decided by strtod on the value.
const char* parse_number(const char* value, const char* end, double* out,
                         bool* ok) {
  const auto [ptr, ec] = std::from_chars(value, end, *out);
  if (ec == std::errc() && (ptr == end || is_request_space(*ptr)) &&
      std::isnormal(*out)) {
    *ok = true;
    return ptr;
  }
  const char* const stop = token_end(ptr, end);
  // strtod stops at a NUL byte, so a NUL inside the value leaves `last`
  // short of the value's end and the value is invalid.
  const std::string text(value, stop);
  errno = 0;
  char* last = nullptr;
  *out = std::strtod(text.c_str(), &last);
  *ok = last != text.c_str() && last == text.c_str() + text.size() &&
        errno != ERANGE && std::isfinite(*out);
  return stop;
}

/// Strictly parses a positive decimal integer of at most 19 digits.
bool parse_id(std::string_view raw, std::uint64_t* out) {
  if (raw.empty() || raw.size() > 19) return false;
  std::uint64_t v = 0;
  for (const char ch : raw) {
    if (ch < '0' || ch > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  *out = v;
  return v != 0;
}

/// Strict-parse outcome of one numeric argument.
enum class Num { kAbsent, kInvalid, kOk };

std::string invalid_number(Key key) {
  return "err invalid number for '" + std::string(kKeyNames[key]) + "'";
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

/// One request's arguments, read in one left-to-right pass over the line:
/// the first value of each key, numbers already parsed, and the first
/// token that is not `key=value` with a key the verb takes. Zeroing the
/// per-key arrays would cost more than the scan (14 ns a line for a view
/// per key, 12 ns for `number`), so only the text keys hold views and
/// `number` is read only where `valid` says it was written.
struct ServeSession::Args {
  unsigned given = 0;  ///< bit k: key k appeared
  unsigned valid = 0;  ///< bit k: number key k holds a number
  std::array<std::string_view, kTextKeys> text;
  std::array<double, kKeyCount> number;
  std::string_view bad;  ///< the first offending token, or empty

  /// Reads the arguments in [p, end) for a verb that takes `keys`; stops
  /// at the first offending token and returns false there.
  bool scan(const char* p, const char* end, unsigned keys) {
    for (;;) {
      p = skip_space(p, end);
      if (p == end) return true;
      const char* const token = p;
      while (p != end && *p != '=' && !is_request_space(*p)) ++p;
      const Key key = p != end && *p == '='
                          ? key_of({token, static_cast<std::size_t>(p - token)})
                          : kKeyCount;
      if (key == kKeyCount || (keys & bit(key)) == 0) {
        bad = {token, static_cast<std::size_t>(token_end(p, end) - token)};
        return false;
      }
      const char* const value = ++p;
      if ((given & bit(key)) != 0) {  // the first value of a key wins
        p = token_end(p, end);
        continue;
      }
      given |= bit(key);
      if (key < kTextKeys) {
        p = token_end(p, end);
        text[key] = {value, static_cast<std::size_t>(p - value)};
      } else {
        bool ok = false;
        p = parse_number(value, end, &number[key], &ok);
        if (ok) valid |= bit(key);
      }
    }
  }

  [[nodiscard]] bool has(Key key) const { return (given & bit(key)) != 0; }

  /// A number key's state; the value goes to *out when there is one.
  Num num(Key key, double* out) const {
    if (!has(key)) return Num::kAbsent;
    if ((valid & bit(key)) == 0) return Num::kInvalid;
    *out = number[key];
    return Num::kOk;
  }
};

ServeSession::ServeSession() : ServeSession(Config{}) {}

ServeSession::ServeSession(Config config)
    : config_(config),
      front_(PartitionedAdmission::Config{config.cores, config.placement,
                                          config.admission}) {}

std::string ServeSession::handle_line(std::string_view line) {
  const char* const end = line.data() + line.size();
  const char* const verb_begin = skip_space(line.data(), end);
  const char* const verb_end = token_end(verb_begin, end);
  const std::string_view verb(verb_begin,
                              static_cast<std::size_t>(verb_end - verb_begin));
  if (verb.empty() || verb[0] == '#') return "";
  // Nothing a client sends may propagate an exception to the transport
  // loop: the strict parsers reject malformed input with `err` replies,
  // and anything that still throws is downgraded here.
  try {
    return dispatch(verb, verb_end, end);
  } catch (const std::exception& e) {
    return std::string("err internal ") + e.what();
  } catch (...) {
    return "err internal unknown failure";
  }
}

std::string ServeSession::dispatch(std::string_view verb,
                                   const char* args_begin, const char* end) {
  // The verb is matched before any argument is read.
  Args args;
  const auto unknown_arg = [&] {
    return "err unknown " + std::string(verb) + " argument '" +
           std::string(args.bad) + "'";
  };
  if (verb == "record")
    return args.scan(args_begin, end, kRecordKeys) ? handle_record(args)
                                                   : unknown_arg();
  if (verb == "admit")
    return args.scan(args_begin, end, kAdmitKeys) ? handle_admit(args)
                                                  : unknown_arg();
  if (verb == "remove")
    return args.scan(args_begin, end, kRemoveKeys) ? handle_remove(args)
                                                   : unknown_arg();
  // The remaining requests take no arguments at all.
  if (verb == "tick" || verb == "stats" || verb == "ping" ||
      verb == "version" || verb == "quit" || verb == "shutdown") {
    if (skip_space(args_begin, end) != end)
      return "err " + std::string(verb) + " takes no arguments";
    if (verb == "tick") return handle_tick();
    if (verb == "stats") return handle_stats();
    if (verb == "ping") return "ok ping";
    if (verb == "version")
      return "ok version mcs-serve/1 cores=" + std::to_string(front_.cores()) +
             " backend=" + to_string(config_.admission.backend);
    closed_ = true;  // quit | shutdown
    return "ok " + std::string(verb);
  }
  return "err unknown request '" + std::string(verb) + "'";
}

std::string ServeSession::handle_admit(const Args& args) {
  double wcet_lo = 0.0;
  double period = 0.0;
  const Num got_lo = args.num(kWcetLo, &wcet_lo);
  const Num got_period = args.num(kPeriod, &period);
  if (got_lo == Num::kInvalid) return invalid_number(kWcetLo);
  if (got_period == Num::kInvalid) return invalid_number(kPeriod);
  if (!args.has(kName) || args.text[kName].empty() || !args.has(kCrit) ||
      got_lo == Num::kAbsent || got_period == Num::kAbsent)
    return "err admit requires name= crit= wcet_lo= period=";
  const std::string name(args.text[kName]);
  if (by_name_.contains(name))
    return "err name '" + name + "' already resident";

  mc::McTask task;
  if (args.text[kCrit] == "HC") {
    double wcet_hi = 0.0;
    const Num got_hi = args.num(kWcetHi, &wcet_hi);
    if (got_hi == Num::kInvalid) return invalid_number(kWcetHi);
    if (got_hi == Num::kAbsent) return "err HC admit requires wcet_hi=";
    task = mc::McTask::high(name, wcet_lo, wcet_hi, period);
  } else if (args.text[kCrit] == "LC") {
    task = mc::McTask::low(name, wcet_lo, period);
  } else {
    return "err crit must be HC or LC";
  }
  double deadline = 0.0;
  switch (args.num(kDeadline, &deadline)) {
    case Num::kOk: task.deadline_override = deadline; break;
    case Num::kInvalid: return invalid_number(kDeadline);
    case Num::kAbsent: break;
  }
  double acet = 0.0;
  double sigma = 0.0;
  const Num got_acet = args.num(kAcet, &acet);
  const Num got_sigma = args.num(kSigma, &sigma);
  if (got_acet == Num::kInvalid) return invalid_number(kAcet);
  if (got_sigma == Num::kInvalid) return invalid_number(kSigma);
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

ServeSession::Entries::iterator ServeSession::resolve(const Args& args,
                                                      std::string* error) {
  if (args.has(kName)) {
    const auto it = by_name_.find(args.text[kName]);
    if (it == by_name_.end()) {
      *error = "err unknown task '" + std::string(args.text[kName]) + "'";
      return entries_.end();
    }
    return entries_.find(it->second);
  }
  if (args.has(kId)) {
    std::uint64_t id = 0;
    if (!parse_id(args.text[kId], &id)) {
      *error = "err invalid id '" + std::string(args.text[kId]) + "'";
      return entries_.end();
    }
    const auto it = entries_.find(id);
    if (it == entries_.end()) *error = "err unknown id " + std::to_string(id);
    return it;
  }
  *error = "err request needs a valid name= or id=";
  return entries_.end();
}

std::string ServeSession::handle_remove(const Args& args) {
  std::string error;
  const auto it = resolve(args, &error);
  if (it == entries_.end()) return error;
  const std::uint64_t id = it->first;
  const std::string name = it->second.name;
  front_.remove(id);
  by_name_.erase(name);
  entries_.erase(it);
  return "ok remove " + name + " id=" + std::to_string(id) +
         " resident=" + std::to_string(front_.resident_count());
}

std::string ServeSession::handle_record(const Args& args) {
  std::string error;
  const auto it = resolve(args, &error);
  if (it == entries_.end()) return error;
  double time = 0.0;
  switch (args.num(kTime, &time)) {
    case Num::kInvalid: return invalid_number(kTime);
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
