// Minimal poll-based TCP line server and client plumbing.
//
// The admission service speaks a transport-agnostic one-request-per-line
// protocol (core/serve.hpp ServeSession); this module supplies the
// network transport under `mcs-cli serve --listen`: a single-threaded
// poll(2) loop multiplexing one listener and many client connections,
// with per-connection line framing, bounded input lines, per-connection
// output queues (replies always leave in request order) that stop the
// reading of a connection whose peer does not drain them, idle
// disconnects, and a self-pipe so another thread or a signal handler can
// request a graceful shutdown.
//
// All syscalls go through EINTR-safe wrappers: a signal delivered to the
// serving process (SIGCHLD from a supervisor, a forwarded SIGTERM that a
// handler swallows) must never surface as a spurious I/O error or drop a
// connection.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

struct pollfd;  // <poll.h>; only the .cpp needs the definition

namespace mcs::common::net {

// ---------------------------------------------------------------------------
// EINTR-safe syscall wrappers (return the syscall's result; errno is
// meaningful on failure, but never EINTR).

[[nodiscard]] int accept_retry(int fd);
[[nodiscard]] long read_retry(int fd, void* buf, std::size_t n);
/// On sockets this is send(2) with MSG_NOSIGNAL: writing to a peer that
/// already disconnected fails with EPIPE instead of raising SIGPIPE
/// (whose default disposition would kill the whole server process).
/// Non-socket fds fall back to plain write(2).
[[nodiscard]] long write_retry(int fd, const void* buf, std::size_t n);
/// poll(2) with a millisecond timeout; on EINTR re-polls with the
/// remaining time so a signal cannot silently extend the wait.
[[nodiscard]] int poll_retry(::pollfd* fds, unsigned long nfds,
                             int timeout_ms);
void close_retry(int fd);

// ---------------------------------------------------------------------------
// LineBuffer — incremental newline framing for one connection.

/// Accumulates raw bytes and yields complete '\n'-terminated lines with
/// the terminator (and any preceding '\r') stripped. A line longer than
/// `max_line` flips the buffer into an overflow state: the connection
/// cannot be resynchronized safely and should be dropped after an error
/// reply. next() only advances a read cursor; feed() first drops the
/// consumed prefix, which moves just the bytes next() has not returned.
class LineBuffer {
 public:
  explicit LineBuffer(std::size_t max_line = 1 << 16)
      : max_line_(max_line) {}

  /// Appends raw bytes. Returns false (and sets overflowed()) when the
  /// unterminated tail exceeds the line bound.
  bool feed(const char* data, std::size_t n);

  /// Pops the next complete line as a view into the buffer, valid until
  /// the next feed(). False when no full line is buffered.
  bool next(std::string_view* line);

  /// Pops the next complete line into *line (a copy of the view form).
  bool next(std::string* line);

  /// The bytes next() has not returned yet (after the last complete line:
  /// a final line without '\n' before EOF).
  [[nodiscard]] std::string_view tail() const {
    return std::string_view(buffer_).substr(start_);
  }

  [[nodiscard]] bool overflowed() const { return overflowed_; }

 private:
  std::string buffer_;
  std::size_t start_ = 0;  ///< read cursor: buffer_[start_..] is unconsumed
  std::size_t max_line_;
  bool overflowed_ = false;
};

// ---------------------------------------------------------------------------
// TcpListener — bound + listening IPv4 socket.

class TcpListener {
 public:
  /// Binds and listens on `address:port` (port 0 picks an ephemeral
  /// port — read the actual one back with port()). Throws
  /// std::runtime_error on any socket/bind/listen failure.
  TcpListener(const std::string& address, std::uint16_t port,
              int backlog = 64);
  ~TcpListener();
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&&) = delete;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  /// The actually bound port (resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& address() const { return address_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string address_;
};

/// Blocking client connect to `address:port` (IPv4 dotted quad or
/// "localhost"). Returns the connected fd; throws std::runtime_error on
/// failure. The caller owns the fd (close with close_retry).
[[nodiscard]] int connect_tcp(const std::string& address,
                              std::uint16_t port);

// ---------------------------------------------------------------------------
// LineServer — single-threaded poll loop over listener + connections.

/// What the connection does after the handler has queued its reply.
enum class LineAction {
  kKeep,      ///< read the next request
  kClose,     ///< flush this connection's queue and close it (`quit`)
  kShutdown,  ///< flush every connection and leave the serve loop
};

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral
  int backlog = 64;
  /// Disconnect a connection with no complete request for this long,
  /// counted from the socket read that completed its last request (<= 0
  /// disables the idle reaper).
  double idle_timeout_ms = -1.0;
  /// Longest accepted request line; beyond it the connection gets one
  /// `err` reply and is dropped (no resynchronization).
  std::size_t max_line = 1 << 16;
  /// Accept at most this many simultaneous connections; excess accepts
  /// are refused with one error line.
  std::size_t max_connections = 64;
};

/// A connection with more than 1 MiB of unsent replies is not read until
/// its peer drains them, so a client that sends requests but never reads
/// stalls in its own socket buffers instead of growing server memory. A
/// client must therefore read replies while it writes requests (as
/// `mcs-cli client` does): one that writes a long script before reading
/// anything waits forever.
class LineServer {
 public:
  /// `on_line(conn_id, line, out)` runs once per complete request line, in
  /// arrival order (lines of one connection are never reordered; lines of
  /// different connections interleave at line granularity in poll order).
  /// `line` views the connection's input buffer and is valid only during
  /// the call. The handler appends its reply, '\n' included, to `out`, the
  /// connection's queue of unsent bytes; a silent line appends nothing.
  using Handler = std::function<LineAction(
      std::uint64_t conn_id, std::string_view line, std::string& out)>;

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t refused = 0;        ///< over max_connections
    std::uint64_t lines = 0;          ///< handler invocations
    std::uint64_t idle_disconnects = 0;
    std::uint64_t overlong_lines = 0;
  };

  /// Internal counters are atomic so stats() can be read from another
  /// thread while run() is live (tests poll them mid-serve).
  struct StatsCounters {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> refused{0};
    std::atomic<std::uint64_t> lines{0};
    std::atomic<std::uint64_t> idle_disconnects{0};
    std::atomic<std::uint64_t> overlong_lines{0};
  };

  /// Binds immediately (so port() is valid before run()). Throws on bind
  /// failure.
  LineServer(const ServerConfig& config, Handler handler);
  ~LineServer();
  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Serves until stop() is called or a handler returns kShutdown.
  /// Pending replies are flushed (bounded best-effort) before returning.
  void run();

  /// Requests a graceful stop from any thread or a signal handler (only
  /// async-signal-safe calls: an atomic store and a pipe write).
  void stop();

  [[nodiscard]] Stats stats() const {
    Stats s;
    s.accepted = stats_.accepted.load(std::memory_order_relaxed);
    s.refused = stats_.refused.load(std::memory_order_relaxed);
    s.lines = stats_.lines.load(std::memory_order_relaxed);
    s.idle_disconnects =
        stats_.idle_disconnects.load(std::memory_order_relaxed);
    s.overlong_lines = stats_.overlong_lines.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    LineBuffer in;
    std::string out;          ///< queued reply bytes, FIFO
    double last_activity_ms = 0.0;
    bool closing = false;     ///< flush out, then close
    explicit Connection(std::size_t max_line) : in(max_line) {}
  };

  void accept_new();
  /// Reads from connection `i`; handles complete lines. Returns false
  /// when the connection is finished (EOF/error) and was closed.
  bool service_input(std::size_t i);
  /// Attempts to drain connection i's output queue. Returns false on a
  /// fatal write error (connection closed).
  bool flush_output(std::size_t i);
  void drop_connection(std::size_t i);
  void handle_lines(std::size_t i);
  [[nodiscard]] double now_ms() const;

  ServerConfig config_;
  Handler handler_;
  TcpListener listener_;
  std::vector<Connection> conns_;
  /// service_input's read(2) target, left uninitialized: only the pages a
  /// read fills count toward the server's memory.
  std::unique_ptr<char[]> read_buf_;
  StatsCounters stats_;
  int stop_pipe_[2] = {-1, -1};
  std::uint64_t next_conn_id_ = 1;
  /// After an accept(2) resource failure (EMFILE/...) the listener is not
  /// polled until this steady-clock instant, so the still-queued pending
  /// connection cannot spin the loop (see accept_new).
  double accept_pause_until_ms_ = 0.0;
  std::atomic<bool> stop_requested_{false};
  bool shutdown_ = false;
};

}  // namespace mcs::common::net
