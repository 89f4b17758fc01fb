#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

/// How long a run waits for outstanding answers after its last send.
constexpr double kDrainSeconds = 10.0;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// One response parsed off the front of a buffer.
struct Parsed {
  std::size_t consumed = 0;  ///< 0: incomplete
  int status = 0;
  std::size_t body_off = 0;
  std::size_t body_len = 0;
  bool close = false;
  bool malformed = false;
};

Parsed parse_response(const std::string& in) {
  Parsed p;
  const std::size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return p;
  if (in.compare(0, 9, "HTTP/1.1 ") != 0 || head_end < 12) {
    p.malformed = true;
    return p;
  }
  p.status = (in[9] - '0') * 100 + (in[10] - '0') * 10 + (in[11] - '0');
  bool have_length = false;
  std::size_t line = in.find("\r\n") + 2;
  while (line < head_end) {
    const std::size_t eol = in.find("\r\n", line);
    const std::size_t colon = in.find(':', line);
    if (colon != std::string::npos && colon < eol) {
      std::string name = in.substr(line, colon - line);
      for (char& ch : name)
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      std::size_t v = colon + 1;
      while (v < eol && in[v] == ' ') ++v;
      const std::string value = in.substr(v, eol - v);
      if (name == "content-length") {
        const auto [end, ec] = std::from_chars(
            value.data(), value.data() + value.size(), p.body_len);
        have_length = ec == std::errc{} && end == value.data() + value.size();
      } else if (name == "connection" && value == "close") {
        p.close = true;
      }
    }
    line = eol + 2;
  }
  if (!have_length) {
    p.malformed = true;
    return p;
  }
  p.body_off = head_end + 4;
  if (in.size() < p.body_off + p.body_len) return p;
  p.consumed = p.body_off + p.body_len;
  return p;
}

timespec to_timespec(Clock::time_point t) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t.time_since_epoch())
                      .count();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  if (ts.tv_sec == 0 && ts.tv_nsec == 0) ts.tv_nsec = 1;  // 0 disarms
  return ts;
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

}  // namespace

std::string http_request(const std::string& method, const std::string& target,
                         const std::string& content_type,
                         const std::string& body, const std::string& tenant) {
  std::string wire = method + ' ' + target +
                     " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: " +
                     content_type +
                     "\r\nContent-Length: " + std::to_string(body.size());
  if (!tenant.empty()) wire += "\r\nX-Tenant: " + tenant;
  wire += "\r\n\r\n";
  wire += body;
  return wire;
}

LoadGen::LoadGen(std::uint16_t port, std::size_t connections)
    : port_(port), conns_(connections) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0)
    throw std::runtime_error("loadgen: epoll/timerfd: " +
                             std::string(std::strerror(errno)));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conns_.size();  // the timer's tag
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
  for (std::size_t c = 0; c < conns_.size(); ++c)
    if (!reconnect(c))
      throw std::runtime_error("loadgen: cannot connect to port " +
                               std::to_string(port));
}

LoadGen::~LoadGen() {
  for (Conn& conn : conns_)
    if (conn.fd >= 0) ::close(conn.fd);
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool LoadGen::reconnect(std::size_t c) {
  Conn& conn = conns_[c];
  if (conn.fd >= 0) ::close(conn.fd);  // close() also leaves the epoll set
  conn.fd = connect_loopback(port_);
  conn.in.clear();
  conn.out.clear();
  conn.out_off = 0;
  conn.want_out = false;
  if (conn.fd < 0) return false;
  ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = c;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev);
  return true;
}

void LoadGen::watch(std::size_t c) {
  Conn& conn = conns_[c];
  const bool want = conn.out_off < conn.out.size();
  if (want == conn.want_out) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = c;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.want_out = want;
}

void LoadGen::flush(std::size_t c) {
  Conn& conn = conns_[c];
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EAGAIN waits for EPOLLOUT; an error surfaces as a failed read
  }
  watch(c);
}

void LoadGen::issue(std::size_t c, std::uint64_t index, const Source& source,
                    LoadRun& run) {
  Conn& conn = conns_[c];
  Outgoing req = source(index);
  if (run.answers.size() <= index) run.answers.resize(index + 1);
  run.answers[index].sent = true;
  run.answers[index].cells = req.cells;
  conn.busy = true;
  conn.index = index;
  conn.keep = req.keep_body && run.kept.size() < kMaxKeptBodies;
  conn.out = std::move(req.wire);
  conn.out_off = 0;
  if (conn.fd < 0) return;  // dead connection: stays unanswered
  flush(c);
}

bool LoadGen::on_readable(std::size_t c, int* status, std::string* body) {
  Conn& conn = conns_[c];
  char buf[65536];
  bool failed = false;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    failed = true;  // peer closed or error
    break;
  }
  const Parsed p = parse_response(conn.in);
  if (p.consumed != 0 && conn.busy) {
    *status = p.status;
    if (conn.keep) *body = conn.in.substr(p.body_off, p.body_len);
    conn.in.erase(0, p.consumed);
    if (p.close || failed) reconnect(c);
    return true;
  }
  if (failed || p.malformed) {
    *status = 0;
    reconnect(c);
    return conn.busy;
  }
  return false;
}

LoadRun LoadGen::closed(const Source& source, double seconds,
                        std::uint64_t end_index) {
  LoadRun run;
  const std::size_t n_conn = conns_.size();
  const Clock::time_point start = Clock::now();
  const Clock::time_point window_end = after(start, seconds);
  for (std::size_t c = 0; c < n_conn; ++c) {
    conns_[c].next = c;
    conns_[c].backlog.clear();
    if (c < end_index) {
      issue(c, conns_[c].next, source, run);
      conns_[c].next += n_conn;
    }
  }
  const Clock::time_point drain_end = after(window_end, kDrainSeconds);
  epoll_event events[16];
  for (;;) {
    bool any_busy = false;
    for (const Conn& conn : conns_) any_busy = any_busy || conn.busy;
    const Clock::time_point now = Clock::now();
    if (!any_busy || now >= drain_end) break;
    const int n = ::epoll_wait(epoll_fd_, events, 16, 50);
    for (int e = 0; e < n; ++e) {
      const std::size_t c = events[e].data.u64;
      if (c >= n_conn) continue;
      if ((events[e].events & EPOLLOUT) != 0) flush(c);
      if ((events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) continue;
      int status = 0;
      std::string body;
      if (!on_readable(c, &status, &body)) continue;
      Conn& conn = conns_[c];
      const Clock::time_point at = Clock::now();
      Answer& answer = run.answers[conn.index];
      answer.status = status;
      answer.at_s = static_cast<float>(ms_between(start, at) / 1000.0);
      if (conn.keep && status != 0) run.kept.emplace_back(conn.index, std::move(body));
      conn.busy = false;
      if (at < window_end && conn.next < end_index) {
        issue(c, conn.next, source, run);
        conn.next += n_conn;
      }
    }
  }
  // Whatever is still in flight has no answer (status 0); close those
  // connections so a late answer cannot be read as the next request's.
  for (std::size_t c = 0; c < n_conn; ++c)
    if (conns_[c].busy) {
      conns_[c].busy = false;
      reconnect(c);
    }
  run.window_s = seconds;
  return run;
}

LoadRun LoadGen::open(const Source& source, double rate, double seconds) {
  LoadRun run;
  const std::size_t n_conn = conns_.size();
  const auto total = static_cast<std::uint64_t>(std::floor(rate * seconds));
  run.answers.resize(total);
  run.latency_ms.assign(total, -1.0);
  run.lag_ms.assign(total, 0.0);
  const Clock::time_point start = after(Clock::now(), 0.002);
  const auto due = [&](std::uint64_t i) {
    return after(start, static_cast<double>(i) / rate);
  };
  const Clock::time_point drain_end =
      after(due(total == 0 ? 0 : total - 1), kDrainSeconds);
  for (Conn& conn : conns_) conn.backlog.clear();

  const auto arm = [&](Clock::time_point t) {
    itimerspec spec{};
    spec.it_value = to_timespec(t);
    ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
  };
  std::uint64_t next = 0;
  if (total > 0) arm(due(0));

  epoll_event events[16];
  for (;;) {
    bool pending = next < total;
    for (const Conn& conn : conns_)
      pending = pending || conn.busy || !conn.backlog.empty();
    if (!pending || Clock::now() >= drain_end) break;
    const int n = ::epoll_wait(epoll_fd_, events, 16, 50);
    for (int e = 0; e < n; ++e) {
      const std::size_t c = events[e].data.u64;
      if (c == n_conn) {  // the due-time timer
        std::uint64_t expirations = 0;
        while (::read(timer_fd_, &expirations, sizeof expirations) > 0) {
        }
        const Clock::time_point now = Clock::now();
        while (next < total && due(next) <= now) {
          run.lag_ms[next] = ms_between(due(next), now);
          const std::size_t target = next % n_conn;
          Conn& conn = conns_[target];
          if (!conn.busy && conn.backlog.empty())
            issue(target, next, source, run);
          else
            conn.backlog.push_back(next);
          ++next;
        }
        if (next < total) arm(due(next));
        continue;
      }
      if ((events[e].events & EPOLLOUT) != 0) flush(c);
      if ((events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) continue;
      int status = 0;
      std::string body;
      if (!on_readable(c, &status, &body)) continue;
      Conn& conn = conns_[c];
      const Clock::time_point at = Clock::now();
      Answer& answer = run.answers[conn.index];
      answer.status = status;
      answer.at_s = static_cast<float>(ms_between(start, at) / 1000.0);
      if (conn.keep && status != 0) run.kept.emplace_back(conn.index, std::move(body));
      if (status != 0) run.latency_ms[conn.index] = ms_between(due(conn.index), at);
      conn.busy = false;
      if (!conn.backlog.empty()) {
        const std::uint64_t waiting = conn.backlog.front();
        conn.backlog.pop_front();
        issue(c, waiting, source, run);
      }
    }
  }
  for (std::size_t c = 0; c < n_conn; ++c)
    if (conns_[c].busy) {
      conns_[c].busy = false;
      reconnect(c);
    }
  // A request that was due counts even if it never left its backlog.
  const double horizon_ms = ms_between(start, drain_end);
  for (std::uint64_t i = 0; i < total; ++i) {
    run.answers[i].sent = true;
    if (run.answers[i].status == 0) run.latency_ms[i] = horizon_ms;
  }
  run.window_s = seconds;
  return run;
}

}  // namespace perfbench
