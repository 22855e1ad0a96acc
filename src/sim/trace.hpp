// Optional event trace of a simulation run, for debugging and for the
// examples' narrative output. Recording is bounded so long simulations
// cannot exhaust memory.
//
// Events carry the *index* of the task in the simulated set rather than a
// name string: the hot recording path never touches a heap allocation, and
// names are resolved once at render time from the trace's task-name table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace mcs::sim {

/// Kinds of recorded events. The values are the kind byte of binary
/// trace files (sim/trace_sink.hpp); codes 1 and 2 are unused.
enum class TraceEventKind {
  kRelease = 0,
  kComplete = 3,
  kOverrun = 4,
  kModeSwitchHi = 5,
  kModeSwitchLo = 6,
  kDropLc = 7,
  kDeadlineMiss = 8,
  kDispatch = 9,        ///< scheduler picked a job (SimConfig::trace_dispatch)
  kBudgetRestore = 10,  ///< degraded LC budget restored at the HI->LO switch
};

/// Human-readable name of a trace event kind.
[[nodiscard]] const char* to_string(TraceEventKind kind);

/// Task index used by system-level events that belong to no task.
inline constexpr std::uint32_t kNoTraceTask = 0xFFFF'FFFFu;

/// One recorded event.
struct TraceEvent {
  common::Millis time = 0.0;
  TraceEventKind kind = TraceEventKind::kRelease;
  std::uint32_t task = kNoTraceTask;  ///< task-set index (kNoTraceTask = none)
  // Extended fields, populated only by the kDispatch / kBudgetRestore
  // events emitted under SimConfig::trace_dispatch. They expose the
  // scheduler's actual decision inputs so oracle tests can re-derive the
  // expected values from the task set and compare.
  bool hi_mode = false;           ///< system mode at the event (true = HI)
  bool virtual_deadline = false;  ///< dispatch keyed on the virtual deadline
  common::Millis release = 0.0;   ///< releasing instant of the job
  double value = 0.0;  ///< kDispatch: absolute deadline the EDF pick used;
                       ///< kBudgetRestore: the restored budget (ms)
};

/// Renders events as one line per event ("[t ms] kind name"), the shared
/// text form produced by Trace::render() and the tools/mcs_trace decoder.
/// `total` >= events.size(); the difference is reported as not stored.
[[nodiscard]] std::string render_trace_text(
    const std::vector<std::string>& task_names,
    const std::vector<TraceEvent>& events, std::size_t total);

/// Bounded in-memory trace.
class Trace {
 public:
  /// `capacity` caps recorded events; further events are counted but not
  /// stored. Capacity 0 disables recording entirely (the engine then
  /// skips event bookkeeping altogether, so total_recorded() stays 0).
  explicit Trace(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Records (or counts) an event for `task` (kNoTraceTask = system event).
  void record(common::Millis time, TraceEventKind kind,
              std::uint32_t task = kNoTraceTask);

  /// Records (or counts) a fully populated event (extended fields).
  void record(TraceEvent event);

  /// Installs the name table used to resolve task indices when rendering.
  void set_task_names(std::vector<std::string> names) {
    task_names_ = std::move(names);
  }
  [[nodiscard]] const std::vector<std::string>& task_names() const {
    return task_names_;
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t total_recorded() const { return total_; }
  [[nodiscard]] bool enabled() const { return capacity_ > 0; }

  /// Renders the trace as one line per event.
  [[nodiscard]] std::string render() const;

 private:
  std::size_t capacity_;
  std::size_t total_ = 0;
  std::vector<TraceEvent> events_;
  std::vector<std::string> task_names_;
};

}  // namespace mcs::sim
