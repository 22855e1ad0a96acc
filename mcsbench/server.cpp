#include "server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "harness.hpp"

namespace mcsbench {

namespace net = mcs::common::net;

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

ServerProcess::ServerProcess(const std::string& exe,
                             const std::vector<std::string>& args) {
  std::vector<std::string> argv_store = {exe, "serve", "--listen",
                                         "--bind=127.0.0.1", "--port=0"};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw_errno("pipe2");
  pid_ = ::fork();
  if (pid_ < 0) throw_errno("fork");
  if (pid_ == 0) {
    // Dies with the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int null_fd = ::open("/dev/null", O_RDWR);
    ::dup2(null_fd, 0);
    ::dup2(null_fd, 1);
    ::dup2(pipe_fds[1], 2);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];

  // The server prints "serve: listening on <addr>:<port>" once bound.
  std::string text;
  const Clock::time_point start = Clock::now();
  while (text.find('\n') == std::string::npos) {
    const double left_ms = 10000.0 - 1000.0 * seconds_since(start);
    pollfd pfd{stderr_fd_, POLLIN, 0};
    if (left_ms <= 0.0 ||
        net::poll_retry(&pfd, 1, static_cast<int>(left_ms)) == 0) {
      reap();
      throw std::runtime_error("server did not start within 10 s");
    }
    char buf[256];
    const long r = net::read_retry(stderr_fd_, buf, sizeof buf);
    if (r <= 0) {
      reap();
      throw std::runtime_error("server exited during start-up: " + text);
    }
    text.append(buf, static_cast<std::size_t>(r));
  }
  const std::string line = text.substr(0, text.find('\n'));
  const std::size_t colon = line.rfind(':');
  if (line.find("listening on") == std::string::npos ||
      colon == std::string::npos) {
    reap();
    throw std::runtime_error("unexpected server banner: " + line);
  }
  port_ = static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
}

ServerProcess::~ServerProcess() { reap(); }

void ServerProcess::reap() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stderr_fd_ >= 0) {
    net::close_retry(stderr_fd_);
    stderr_fd_ = -1;
  }
}

bool ServerProcess::wait(double timeout_s) {
  const Clock::time_point start = Clock::now();
  int status = 0;
  while (pid_ > 0) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      reap();
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (r < 0 && errno != EINTR) break;
    if (seconds_since(start) > timeout_s) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  reap();
  return false;
}

Connection::Connection(std::uint16_t port)
    : fd_(net::connect_tcp("127.0.0.1", port)) {
  // Not inherited by the serve children of later rounds.
  ::fcntl(fd_, F_SETFD, FD_CLOEXEC);
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Connection::~Connection() { net::close_retry(fd_); }

void Connection::send(std::string_view data) {
  while (!data.empty()) {
    const long w = net::write_retry(fd_, data.data(), data.size());
    if (w < 0) throw_errno("send");
    data.remove_prefix(static_cast<std::size_t>(w));
  }
}

bool Connection::fill() {
  char buf[65536];
  const long r = net::read_retry(fd_, buf, sizeof buf);
  if (r < 0) throw_errno("recv");
  if (r == 0) return false;
  if (!in_.feed(buf, static_cast<std::size_t>(r)))
    throw std::runtime_error("reply line exceeds the line bound");
  return true;
}

bool Connection::next_line(std::string* line) { return in_.next(line); }

std::string Connection::read_line() {
  std::string line;
  while (!next_line(&line))
    if (!fill()) throw std::runtime_error("server closed the connection");
  return line;
}

}  // namespace mcsbench
