#include "core/serve_net.hpp"

namespace mcs::core {

namespace {

/// Whether `line` is the word `command` alone, request whitespace around
/// it allowed.
bool is_command(std::string_view line, std::string_view command) {
  std::size_t b = 0;
  std::size_t e = line.size();
  while (b < e && is_request_space(line[b])) ++b;
  while (e > b && is_request_space(line[e - 1])) --e;
  return line.substr(b, e - b) == command;
}

}  // namespace

common::net::LineAction NetServeFront::on_line(std::uint64_t /*conn_id*/,
                                               std::string_view line,
                                               std::string& out) {
  ++lines_;
  // Lifecycle commands are intercepted BEFORE the session: over the
  // network `quit` must close only the requesting connection, never the
  // shared session, and `shutdown` stops the whole server. Lines that
  // merely start with these words ("quit now") fall through and earn the
  // session's `err ... takes no arguments` reply. Only a line whose first
  // byte is blank, 'q' or 's' can be one of them, so the job-rate
  // `record` lines are not trimmed.
  const char first = line.empty() ? ' ' : line[0];
  if (first == 'q' || first == 's' || is_request_space(first)) {
    if (is_command(line, "quit")) {
      out += "ok quit\n";
      return common::net::LineAction::kClose;
    }
    if (is_command(line, "shutdown")) {
      out += "ok shutdown\n";
      return common::net::LineAction::kShutdown;
    }
  }
  const std::string reply = session_->handle_line(line);
  if (!reply.empty()) {
    out += reply;
    out += '\n';
  }
  return common::net::LineAction::kKeep;
}

}  // namespace mcs::core
