// The live side of the serve workloads: a `mcs-cli serve --listen` child
// process and blocking loopback connections to it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/net.hpp"

namespace mcsbench {

/// `mcs-cli serve --listen --port=0 <args>` as a child process. The
/// constructor returns once the server reports its bound port on stderr;
/// the destructor kills a server that was not shut down.
class ServerProcess {
 public:
  ServerProcess(const std::string& exe, const std::vector<std::string>& args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Waits for the process to exit after a `shutdown` request; kills it
  /// after `timeout_s`. True when it exited with status 0.
  bool wait(double timeout_s);

 private:
  void reap();

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// One blocking TCP connection to 127.0.0.1, framed by
/// common::net::LineBuffer.
class Connection {
 public:
  explicit Connection(std::uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  /// Writes all of `data`; throws on a socket error.
  void send(std::string_view data);
  /// Blocks until the next line arrives; throws on EOF.
  std::string read_line();
  /// One recv into the buffer (call when poll reports input); false on
  /// EOF.
  bool fill();
  /// Pops a complete buffered line without blocking.
  bool next_line(std::string* line);

 private:
  int fd_ = -1;
  mcs::common::net::LineBuffer in_;
};

}  // namespace mcsbench
