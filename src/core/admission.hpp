// Incremental admission control for an open MC system.
//
// Closed-world experiments generate a task set, test it once, and discard
// it; a long-running system instead sees a continuous stream of arrivals
// and departures and must answer "can this task join?" quickly and
// always-safely. AdmissionController keeps the resident set together with
// cached per-task analysis terms — the Eq. 7 utilization addends of the
// EDF-VD test (sched/edf_vd.hpp) and the per-task demand terms plus the
// exact demand profile of the processor-demand test (sched/dbf.hpp) — so
// one mutation re-validates the whole set in one pass over the profiled
// deadline instants instead of re-running Eq. 8 + the DBF scan from
// scratch.
//
// The incremental verdict is *bit-identical* to the from-scratch
// admission_check() below, not merely approximately equal:
//  - utilization aggregates are re-folded left-to-right over cached
//    addends in admission order, the exact fold TaskSet::utilization
//    performs;
//  - the demand scan runs in exact int64 ticks, so the profile of the
//    resident set can take one task's demand on (an arrival, +1) or off
//    (a departure, -1; an update is -1 then +1): sched::dbf_apply
//    returns exactly the verdict dbf_scan computes over the mutated set.
//    Each mutation builds a fresh profile, committed only when the
//    mutation is accepted; a from-scratch scan runs only when the
//    profile is incomplete (the last scan stopped at its point budget).
// tests/test_admission_oracle.cpp drives randomized churn against the
// from-scratch oracle to hold this contract.
//
// The protocol layer lives separately: core/serve.hpp wraps a
// (possibly partitioned, core/partitioned_admission.hpp) controller in
// the line protocol behind `mcs-cli serve` and closes the measurement
// loop: per-job execution times feed OnlineMonitor (core/online.hpp),
// and drifted tasks get their C^LO re-derived from the *observed*
// moments via Chebyshev (Eq. 6) and re-admitted through the same
// incremental test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mc/taskset.hpp"
#include "sched/dbf.hpp"
#include "sched/demand_vd.hpp"
#include "sched/edf_vd.hpp"

namespace mcs::core {

/// Which schedulability backend decides admission.
enum class AdmissionBackend {
  /// Eq. 8 EDF-VD utilization test + LO-mode demand scan (the default,
  /// matching the paper's analysis).
  kUtilization,
  /// Demand-based deadline tightening (sched/demand_vd.hpp): when the
  /// utilization verdict rejects, a grid search over the virtual-deadline
  /// factor x runs both mode scans on the demand-bound criterion. Accepts
  /// a superset of kUtilization by construction (the search only ever
  /// flips rejections to admissions).
  kDemand,
};

/// CLI spelling of a backend ("utilization" / "demand").
[[nodiscard]] std::string to_string(AdmissionBackend backend);

/// Parses a CLI spelling ("utilization", "util", "eq8" / "demand").
/// Throws std::invalid_argument on anything else.
[[nodiscard]] AdmissionBackend parse_admission_backend(std::string_view spec);

/// Combined admission verdict: the Eq. 8 EDF-VD test plus the LO-mode
/// processor-demand test over the same set, optionally escalated to the
/// demand-based deadline-tightening search.
struct AdmissionVerdict {
  /// (vd.schedulable && dbf_schedulable) || demand_admitted: only
  /// conclusively verified sets are admitted (an inconclusive DBF scan
  /// rejects unless the demand search certifies a factor).
  bool admitted = true;
  sched::EdfVdResult vd{.schedulable = true, .x = 1.0, .plain_edf = true};
  bool dbf_schedulable = true;
  bool dbf_inconclusive = false;
  /// True when the base verdict rejected but the kDemand backend's grid
  /// search found a certificate (always false under kUtilization).
  bool demand_admitted = false;
  /// The certified virtual-deadline factor (0 when demand_admitted is
  /// false).
  double demand_x = 0.0;
};

/// Field-wise equality with bitwise comparison of the factors (the
/// oracle tests compare incremental verdicts against from-scratch
/// recomputes).
[[nodiscard]] bool verdict_equal(const AdmissionVerdict& a,
                                 const AdmissionVerdict& b);

/// From-scratch reference: evaluates the full set with edf_vd_test and
/// edf_dbf_test (LO mode), escalating rejections to edf_vd_demand_search
/// under kDemand. The incremental controller must match this bit for bit
/// after every mutation.
[[nodiscard]] AdmissionVerdict admission_check(
    const mc::TaskSet& tasks,
    AdmissionBackend backend = AdmissionBackend::kUtilization);

/// Long-lived admission test over a mutable resident set.
class AdmissionController {
 public:
  struct Config {
    /// No effect: a departure always takes its demand off the exact
    /// profile at once. Kept so that callers which still set it compile.
    bool eager_departure_rebuild = true;
    /// Schedulability backend. kDemand escalates base rejections to the
    /// deadline-tightening grid search — a strictly more permissive (and
    /// more expensive, but only on the rejection path) admission test.
    AdmissionBackend backend = AdmissionBackend::kUtilization;
  };

  struct Stats {
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t departures = 0;
    /// Departures served by the demand profile (no from-scratch scan).
    std::uint64_t shortcut_departures = 0;
    std::uint64_t updates = 0;
    std::uint64_t updates_rejected = 0;
    /// From-scratch demand scans, and arrivals and updates served by the
    /// demand profile.
    std::uint64_t full_scans = 0;
    std::uint64_t append_scans = 0;
    /// kDemand backend only: grid searches run on base rejections, and
    /// how many of them flipped the verdict to admitted.
    std::uint64_t demand_searches = 0;
    std::uint64_t demand_admissions = 0;
  };

  struct Decision {
    bool admitted = false;
    /// Resident id of the admitted task (0 when rejected).
    std::uint64_t id = 0;
    /// Verdict of resident-set ∪ {candidate}.
    AdmissionVerdict verdict;
  };

  struct UpdateResult {
    bool applied = false;
    /// Verdict of the set with the modified task (== current() only when
    /// applied).
    AdmissionVerdict verdict;
  };

  AdmissionController();
  explicit AdmissionController(Config config);

  /// Tests resident ∪ {task}; admits (and assigns an id) iff the combined
  /// verdict is conclusively schedulable. Rejections leave all state
  /// untouched. Throws std::invalid_argument on an invalid task.
  Decision try_admit(const mc::McTask& task);

  /// Removes a resident task. Returns false for an unknown id. The
  /// remaining set is always truly schedulable (demand only shrinks), but
  /// the recorded verdict may become dbf-inconclusive when re-verification
  /// would exceed the point budget.
  bool remove(std::uint64_t id);

  /// Re-tests the resident task with a new C^LO (for LC tasks C^HI moves
  /// with it); applies the change iff the modified set stays admitted,
  /// else keeps the old task. Throws std::invalid_argument for an unknown
  /// id or a budget that violates McTask::valid().
  UpdateResult try_update(std::uint64_t id, double wcet_lo);

  /// Verdict of the current resident set (bit-identical to
  /// admission_check(resident_set())).
  [[nodiscard]] const AdmissionVerdict& current() const { return current_; }

  [[nodiscard]] std::size_t resident_count() const {
    return residents_.size();
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Aggregate Eq. 7 utilizations of the resident set (refolded from the
  /// cached addends).
  [[nodiscard]] sched::McUtilization utilization() const;

  /// Copy of the resident set in admission order — the canonical order
  /// every fold and scan runs in.
  [[nodiscard]] mc::TaskSet resident_set() const;

  /// Resident task by id (nullptr when unknown).
  [[nodiscard]] const mc::McTask* find(std::uint64_t id) const;

 private:
  struct Resident {
    std::uint64_t id = 0;
    mc::McTask task;
    double u_lo = 0.0;  ///< utilization(kLow) addend
    double u_hi = 0.0;  ///< utilization(kHigh) addend
  };

  [[nodiscard]] sched::McUtilization fold_utilization(
      const Resident* extra) const;
  /// dbf verdict of terms_, from `base` — the profile of terms_ without
  /// (sign +1) or with (sign -1) `changed` — into scratch_. Counts
  /// `served` when base is complete, else a from-scratch scan.
  sched::DbfResult rescan(const sched::DemandProfile& base,
                          const sched::DbfTaskTerms& changed, int sign,
                          std::uint64_t* served);
  /// kDemand backend escalation: when `verdict` rejects, runs the grid
  /// search over `tasks` and flips the verdict on a certificate. No-op
  /// under kUtilization. Counts stats.
  void apply_demand_backend(AdmissionVerdict* verdict,
                            const mc::TaskSet& tasks);

  Config config_;
  std::vector<Resident> residents_;  ///< admission order
  std::vector<sched::DbfTaskTerms> terms_;  ///< LO-mode, parallel to residents_
  std::unordered_map<std::uint64_t, std::size_t> index_;
  AdmissionVerdict current_;
  sched::DemandProfile profile_;  ///< demand profile of the resident set
  sched::DemandProfile scratch_;  ///< profile of the pending mutation
  Stats stats_;
  std::uint64_t next_id_ = 1;
};

}  // namespace mcs::core
