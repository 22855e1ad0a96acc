#include "sim/trace.hpp"

#include <sstream>

namespace mcs::sim {

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRelease: return "release";
    case TraceEventKind::kComplete: return "complete";
    case TraceEventKind::kOverrun: return "overrun";
    case TraceEventKind::kModeSwitchHi: return "mode->HI";
    case TraceEventKind::kModeSwitchLo: return "mode->LO";
    case TraceEventKind::kDropLc: return "drop-LC";
    case TraceEventKind::kDeadlineMiss: return "deadline-miss";
    case TraceEventKind::kDispatch: return "dispatch";
    case TraceEventKind::kBudgetRestore: return "budget-restore";
  }
  return "?";
}

std::string render_trace_text(const std::vector<std::string>& task_names,
                              const std::vector<TraceEvent>& events,
                              std::size_t total) {
  std::ostringstream out;
  for (const TraceEvent& e : events) {
    out << "[" << e.time << " ms] " << to_string(e.kind);
    if (e.task != kNoTraceTask) {
      if (e.task < task_names.size()) out << " " << task_names[e.task];
      else out << " task#" << e.task;
    }
    out << "\n";
  }
  if (total > events.size())
    out << "... (" << total - events.size() << " more events not stored)\n";
  return out.str();
}

void Trace::record(common::Millis time, TraceEventKind kind,
                   std::uint32_t task) {
  record(TraceEvent{time, kind, task});
}

void Trace::record(TraceEvent event) {
  ++total_;
  if (events_.size() < capacity_) events_.push_back(event);
}

std::string Trace::render() const {
  return render_trace_text(task_names_, events_, total_);
}

}  // namespace mcs::sim
