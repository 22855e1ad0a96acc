// Network front-end for the admission service: ServeSession behind the
// poll-based line server of common/net.hpp.
//
// Every connected client shares ONE ServeSession — one admission state,
// one name space, one measurement loop — and the server processes
// request lines in arrival order, so the service's behaviour over N
// concurrent clients is exactly the script replay of the serialized line
// order (tests/test_net_loopback.cpp pins this byte for byte). Replies
// are queued per connection and leave in request order.
//
// Transport-level command semantics (the only place transport and
// protocol meet):
//   quit      closes the REQUESTING connection only; the session (and
//             every other client) lives on.
//   shutdown  stops the whole server after flushing queued replies.
// In script/stdin mode both simply end the session, so a serialized
// transcript that ends with quit/shutdown replays identically.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/net.hpp"
#include "core/serve.hpp"

namespace mcs::core {

/// Adapts a shared ServeSession to the LineServer handler interface.
class NetServeFront {
 public:
  explicit NetServeFront(ServeSession* session) : session_(session) {}

  /// LineServer::Handler: answers one request line by appending its
  /// reply lines, each with its '\n', to `out`, and says whether the
  /// connection or the whole server closes.
  common::net::LineAction on_line(std::uint64_t conn_id,
                                  std::string_view line, std::string& out);

  [[nodiscard]] std::uint64_t lines_handled() const { return lines_; }

 private:
  ServeSession* session_;
  std::uint64_t lines_ = 0;
};

}  // namespace mcs::core
