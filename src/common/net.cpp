#include "common/net.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mcs::common::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Resolves the textual `address` into an IPv4 sockaddr ("localhost" is
/// special-cased; everything else must be a dotted quad — the service is
/// a loopback/LAN tool, not a name-resolving client).
sockaddr_in make_addr(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved =
      address == "localhost" ? "127.0.0.1" : address;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("net: invalid IPv4 address '" + address + "'");
  return addr;
}

/// Unsent reply bytes above which a connection is not read (back-pressure).
constexpr std::size_t kMaxUnsentBytes = std::size_t{1} << 20;

/// Bytes one read(2) may take from a connection: a whole batch of
/// pipelined requests (a 341-line telemetry batch is about 11 KiB) in one
/// call.
constexpr std::size_t kReadBytes = std::size_t{1} << 16;

}  // namespace

int accept_retry(int fd) {
  while (true) {
    const int r = ::accept(fd, nullptr, nullptr);
    if (r >= 0 || errno != EINTR) return r;
  }
}

long read_retry(int fd, void* buf, std::size_t n) {
  while (true) {
    const ssize_t r = ::read(fd, buf, n);
    if (r >= 0 || errno != EINTR) return r;
  }
}

long write_retry(int fd, const void* buf, std::size_t n) {
  while (true) {
    // send(2) with MSG_NOSIGNAL: a peer that disconnected (RST) while
    // replies were queued must surface as EPIPE — not as a SIGPIPE whose
    // default disposition kills the whole multi-client server. Non-socket
    // fds get the plain write(2) path.
    ssize_t r = ::send(fd, buf, n, MSG_NOSIGNAL);
    if (r < 0 && errno == ENOTSOCK) r = ::write(fd, buf, n);
    if (r >= 0 || errno != EINTR) return r;
  }
}

int poll_retry(::pollfd* fds, unsigned long nfds, int timeout_ms) {
  const auto start = std::chrono::steady_clock::now();
  int remaining = timeout_ms;
  while (true) {
    const int r = ::poll(fds, static_cast<nfds_t>(nfds), remaining);
    if (r >= 0 || errno != EINTR) return r;
    if (timeout_ms < 0) continue;  // infinite wait: just re-poll
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    remaining = timeout_ms - static_cast<int>(elapsed);
    if (remaining <= 0) return 0;  // timed out across the interruption
  }
}

void close_retry(int fd) {
  if (fd < 0) return;
  // POSIX leaves the fd state unspecified after EINTR on close; Linux
  // closes it regardless, so retrying risks closing a reused descriptor.
  // One call, errors ignored — matching every other careful caller.
  (void)::close(fd);
}

// ---------------------------------------------------------------------------
// LineBuffer

bool LineBuffer::feed(const char* data, std::size_t n) {
  if (overflowed_) return false;
  buffer_.erase(0, start_);
  start_ = 0;
  buffer_.append(data, n);
  // Only the unterminated tail is bounded: complete lines are consumed by
  // next() before more input is fed in the server loop.
  if (buffer_.find('\n') == std::string::npos &&
      buffer_.size() > max_line_) {
    overflowed_ = true;
    return false;
  }
  return true;
}

bool LineBuffer::next(std::string_view* line) {
  const std::size_t pos = buffer_.find('\n', start_);
  if (pos == std::string::npos) {
    if (buffer_.size() - start_ > max_line_) overflowed_ = true;
    return false;
  }
  if (pos - start_ > max_line_) {
    overflowed_ = true;
    return false;
  }
  std::size_t end = pos;
  if (end > start_ && buffer_[end - 1] == '\r') --end;  // CRLF clients
  *line = std::string_view(buffer_).substr(start_, end - start_);
  start_ = pos + 1;
  return true;
}

bool LineBuffer::next(std::string* line) {
  std::string_view view;
  if (!next(&view)) return false;
  line->assign(view);
  return true;
}

// ---------------------------------------------------------------------------
// TcpListener

TcpListener::TcpListener(const std::string& address, std::uint16_t port,
                         int backlog)
    : address_(address) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("net: socket");
  const int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(address, port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    close_retry(fd_);
    errno = saved;
    throw_errno("net: bind " + address + ":" + std::to_string(port));
  }
  if (::listen(fd_, backlog) < 0) {
    const int saved = errno;
    close_retry(fd_);
    errno = saved;
    throw_errno("net: listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);
  set_nonblocking(fd_);
}

TcpListener::~TcpListener() { close_retry(fd_); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_), address_(std::move(other.address_)) {
  other.fd_ = -1;
}

int connect_tcp(const std::string& address, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("net: socket");
  const sockaddr_in addr = make_addr(address, port);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) < 0) {
    if (errno == EINTR) continue;
    const int saved = errno;
    close_retry(fd);
    errno = saved;
    throw_errno("net: connect " + address + ":" + std::to_string(port));
  }
  return fd;
}

// ---------------------------------------------------------------------------
// LineServer

LineServer::LineServer(const ServerConfig& config, Handler handler)
    : config_(config),
      handler_(std::move(handler)),
      listener_(config.bind_address, config.port, config.backlog),
      read_buf_(std::make_unique_for_overwrite<char[]>(kReadBytes)) {
  if (::pipe(stop_pipe_) < 0) throw_errno("net: pipe");
  set_nonblocking(stop_pipe_[0]);
  set_nonblocking(stop_pipe_[1]);
}

LineServer::~LineServer() {
  for (Connection& c : conns_) close_retry(c.fd);
  close_retry(stop_pipe_[0]);
  close_retry(stop_pipe_[1]);
}

double LineServer::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void LineServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  // Wake the poll loop. write(2) is async-signal-safe, so stop() may run
  // from a SIGINT/SIGTERM handler.
  const char byte = 's';
  (void)::write(stop_pipe_[1], &byte, 1);
}

void LineServer::accept_new() {
  while (true) {
    const int fd = accept_retry(listener_.fd());
    if (fd < 0) {
      if (errno == ECONNABORTED || errno == EPROTO)
        continue;  // peer died while queued; try the next one
      // Anything else but "queue drained" is resource exhaustion
      // (EMFILE/ENFILE/ENOBUFS/...): the pending connection stays in the
      // listen queue and the level-triggered listener stays readable, so
      // re-polling it immediately would spin at 100% CPU. Pause accepting
      // until descriptors can have freed up.
      if (errno != EAGAIN && errno != EWOULDBLOCK)
        accept_pause_until_ms_ = now_ms() + 100.0;
      return;
    }
    // Non-blocking before ANY write: the refusal below must not let a
    // zero-window peer stall the single-threaded loop.
    set_nonblocking(fd);
    if (conns_.size() >= config_.max_connections) {
      ++stats_.refused;
      static const char refusal[] = "err server at connection limit\n";
      (void)write_retry(fd, refusal, sizeof refusal - 1);
      close_retry(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Connection conn(config_.max_line);
    conn.fd = fd;
    conn.id = next_conn_id_++;
    conn.last_activity_ms = now_ms();
    conns_.push_back(std::move(conn));
    ++stats_.accepted;
  }
}

void LineServer::drop_connection(std::size_t i) {
  close_retry(conns_[i].fd);
  conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
}

void LineServer::handle_lines(std::size_t i) {
  Connection& conn = conns_[i];
  std::uint64_t handled = 0;
  std::string_view line;
  while (!conn.closing && conn.in.next(&line)) {
    ++handled;
    switch (handler_(conn.id, line, conn.out)) {
      case LineAction::kKeep:
        break;
      case LineAction::kShutdown:
        shutdown_ = true;
        [[fallthrough]];
      case LineAction::kClose:
        conn.closing = true;
        break;
    }
  }
  if (handled > 0) {  // one clock read and one counter update per read
    stats_.lines += handled;
    conn.last_activity_ms = now_ms();
  }
  if (conn.in.overflowed() && !conn.closing) {
    ++stats_.overlong_lines;
    conn.out += "err line too long\n";
    conn.closing = true;
  }
}

bool LineServer::service_input(std::size_t i) {
  while (true) {
    const long r = read_retry(conns_[i].fd, read_buf_.get(), kReadBytes);
    if (r > 0) {
      (void)conns_[i].in.feed(read_buf_.get(), static_cast<std::size_t>(r));
      handle_lines(i);
      if (static_cast<std::size_t>(r) < kReadBytes ||
          conns_[i].out.size() > kMaxUnsentBytes)
        return true;
      continue;  // possibly more buffered input
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    // EOF or fatal error: a trailing unterminated line is NOT processed —
    // the protocol frames requests by '\n', and half a request is not a
    // request. Flush whatever replies are queued, then close.
    conns_[i].closing = true;
    return !conns_[i].out.empty();
  }
}

bool LineServer::flush_output(std::size_t i) {
  Connection& conn = conns_[i];
  while (!conn.out.empty()) {
    const long r = write_retry(conn.fd, conn.out.data(), conn.out.size());
    if (r > 0) {
      conn.out.erase(0, static_cast<std::size_t>(r));
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // peer gone; nothing more to deliver
  }
  return true;
}

void LineServer::run() {
  std::vector<pollfd> fds;
  while (!shutdown_ && !stop_requested_.load(std::memory_order_acquire)) {
    const double loop_now = now_ms();
    const bool accept_paused = loop_now < accept_pause_until_ms_;
    fds.clear();
    // While paused after an accept resource failure the listener is polled
    // with no events (slot kept so conns_ stay at fds[i + 2]).
    fds.push_back(
        {listener_.fd(), static_cast<short>(accept_paused ? 0 : POLLIN), 0});
    fds.push_back({stop_pipe_[0], POLLIN, 0});
    for (const Connection& c : conns_) {
      // Back-pressure: a connection whose peer leaves too many replies
      // unread is not read until they drain.
      short events = c.out.size() > kMaxUnsentBytes ? 0 : POLLIN;
      if (!c.out.empty()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
    }

    int timeout = -1;
    if (config_.idle_timeout_ms > 0.0 && !conns_.empty()) {
      double next_deadline = 1e18;
      for (const Connection& c : conns_)
        next_deadline =
            std::min(next_deadline, c.last_activity_ms +
                                        config_.idle_timeout_ms);
      timeout =
          static_cast<int>(std::max(1.0, next_deadline - loop_now + 1.0));
    }
    if (accept_paused) {
      // Wake when the pause lapses so the queued connection is retried
      // even if no other fd turns readable.
      const int resume = static_cast<int>(
          std::max(1.0, accept_pause_until_ms_ - loop_now + 1.0));
      timeout = timeout < 0 ? resume : std::min(timeout, resume);
    }

    const int ready = poll_retry(fds.data(), fds.size(), timeout);
    if (ready < 0) break;  // non-EINTR poll failure: unrecoverable

    if (fds[1].revents & POLLIN) {
      char drain[16];
      while (read_retry(stop_pipe_[0], drain, sizeof drain) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) accept_new();

    // Walk connections back to front so drops do not shift later indices
    // under us. fds[i + 2] belongs to conns_[i] for the pre-accept count.
    const std::size_t polled =
        std::min(conns_.size(), fds.size() - 2);
    for (std::size_t k = polled; k-- > 0;) {
      const short revents = fds[k + 2].revents;
      bool alive = true;
      if (revents & (POLLIN | POLLHUP | POLLERR))
        alive = service_input(k);
      if (alive && !conns_[k].out.empty()) alive = flush_output(k);
      if (!alive || (conns_[k].closing && conns_[k].out.empty())) {
        drop_connection(k);
        continue;
      }
      if (config_.idle_timeout_ms > 0.0 &&
          now_ms() - conns_[k].last_activity_ms >
              config_.idle_timeout_ms) {
        ++stats_.idle_disconnects;
        drop_connection(k);
      }
    }
  }

  // Graceful exit: best-effort flush of queued replies (bounded — a
  // stalled peer cannot wedge shutdown), then close everything.
  const double deadline = now_ms() + 250.0;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    while (!conns_[i].out.empty() && now_ms() < deadline) {
      if (!flush_output(i)) break;
      if (!conns_[i].out.empty()) {
        pollfd pfd{conns_[i].fd, POLLOUT, 0};
        (void)poll_retry(&pfd, 1, 10);
      }
    }
  }
  for (Connection& c : conns_) close_retry(c.fd);
  conns_.clear();
}

}  // namespace mcs::common::net
