#include "core/serve_net.hpp"

namespace mcs::core {

namespace {

/// The line with surrounding whitespace stripped — enough to recognize
/// the two transport-lifecycle commands without re-tokenizing.
std::string_view trimmed(std::string_view line) {
  std::size_t b = 0;
  std::size_t e = line.size();
  while (b < e && is_request_space(line[b])) ++b;
  while (e > b && is_request_space(line[e - 1])) --e;
  return line.substr(b, e - b);
}

}  // namespace

common::net::LineOutcome NetServeFront::on_line(std::uint64_t /*conn_id*/,
                                                std::string_view line) {
  ++lines_;
  // Lifecycle commands are intercepted BEFORE the session: over the
  // network `quit` must close only the requesting connection, never the
  // shared session, and `shutdown` stops the whole server. Lines that
  // merely start with these words ("quit now") fall through and earn the
  // session's `err ... takes no arguments` reply.
  const std::string_view cmd = trimmed(line);
  if (cmd == "quit") return {"ok quit", /*close=*/true, /*shutdown=*/false};
  if (cmd == "shutdown")
    return {"ok shutdown", /*close=*/true, /*shutdown=*/true};

  common::net::LineOutcome outcome;
  outcome.reply = session_->handle_line(line);
  return outcome;
}

}  // namespace mcs::core
