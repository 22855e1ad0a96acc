// Line protocol of the open-system admission service.
//
// ServeSession turns one request line into one deterministic response
// line over a PartitionedAdmission front (core/partitioned_admission.hpp;
// one core by default, which is bit-identical to the monolithic
// controller). The protocol is transport-agnostic: `mcs-cli serve`
// drives it from stdin or a --script replay file, and core/serve_net.hpp
// adapts it to the poll-based TCP front-end (common/net.hpp) for many
// concurrent clients over ONE shared admission state.
//
// Hardening contract (docs/serve_protocol.md is the full spec): every
// malformed request — unknown command, missing or unknown argument,
// numeric token with trailing junk, out-of-range magnitude, NaN or
// infinity — yields a single-line `err <reason>` reply. No input may
// throw past handle_line, abort the process, or silently coerce to 0.0:
// a hostile network client can at worst collect err replies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/online.hpp"
#include "core/partitioned_admission.hpp"

namespace mcs::core {

/// Request whitespace: the C locale's isspace bytes (nothing in the
/// program calls setlocale). Separates tokens and trims lifecycle lines.
[[nodiscard]] constexpr bool is_request_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// One request-per-line service over the admission front, used by
/// `mcs-cli serve` (script/stdin and --listen modes) and exercised
/// directly in tests. Requests:
///
///   admit name=N crit=HC|LC wcet_lo=X period=P [wcet_hi=Y] [deadline=D]
///         [acet=A] [sigma=S]
///   remove name=N | id=I
///   record name=N | id=I time=T         (per-job execution time)
///   tick                                (drift check + re-optimization)
///   stats
///   ping                                (liveness / client barrier)
///   version                             (protocol revision)
///   quit                                (end session / connection)
///   shutdown                            (end session / whole server)
///
/// Blank lines and '#' comments yield no output; `record` is silent on
/// success (it arrives at job rate). Every other request gets exactly one
/// deterministic reply line (tick may prepend one `reopt` line per
/// drifted task), so replayed scripts are byte-comparable with network
/// transcripts of the same serialized request order.
class ServeSession {
 public:
  struct Config {
    AdmissionController::Config admission;
    /// Admission cores behind the front. 1 (default) reproduces the
    /// monolithic service byte for byte; >1 partitions arrivals across
    /// per-core controllers and reports the admitting core.
    std::size_t cores = 1;
    /// Probe-order heuristic for cores > 1.
    sched::PartitionHeuristic placement =
        sched::PartitionHeuristic::kFirstFit;
    /// OnlineMonitor envelope (see core/online.hpp).
    double moment_tolerance = 0.15;
    std::size_t min_jobs = 100;
  };

  ServeSession();
  explicit ServeSession(Config config);

  /// Handles one request line; returns the response text without a
  /// trailing newline ("" for silent lines). Never throws. A valid
  /// `record` allocates nothing: its arguments are read in place and a
  /// `name=` is looked up as a view.
  std::string handle_line(std::string_view line);

  /// True once a `quit` or `shutdown` request was processed.
  [[nodiscard]] bool closed() const { return closed_; }

  [[nodiscard]] const PartitionedAdmission& front() const { return front_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  /// Resident bookkeeping beyond the controllers: name binding and the
  /// per-task drift monitor for HC tasks with a measurement profile.
  struct Entry {
    std::string name;
    /// Single-task monitor (OnlineMonitor is fixed-size; one per task
    /// keeps arrivals/departures independent).
    std::optional<OnlineMonitor> monitor;
    double n_design = 0.0;  ///< multiplier implied by the admitted C^LO
  };

  using Entries = std::map<std::uint64_t, Entry>;
  /// Hashes names and views alike, so by_name_ finds a view in place.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };
  /// One request's arguments, classified by key in one pass over the line
  /// (defined in serve.cpp).
  struct Args;

  /// Runs the request `verb` whose arguments are [args_begin, end).
  std::string dispatch(std::string_view verb, const char* args_begin,
                       const char* end);
  std::string handle_admit(const Args& args);
  std::string handle_remove(const Args& args);
  std::string handle_record(const Args& args);
  std::string handle_tick();
  [[nodiscard]] std::string handle_stats() const;
  /// Resolves a `name=` or `id=` argument to its resident entry; returns
  /// entries_.end() and sets *error on failure.
  [[nodiscard]] Entries::iterator resolve(const Args& args,
                                          std::string* error);

  Config config_;
  PartitionedAdmission front_;
  Entries entries_;  ///< id order == admission order
  std::unordered_map<std::string, std::uint64_t, NameHash, std::equal_to<>>
      by_name_;
  bool closed_ = false;
};

}  // namespace mcs::core
