#include "svc/event_loop.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "svc/protocol.hpp"

namespace cloudwf::svc {

namespace {

constexpr std::uint64_t kWakeTag = 1;
constexpr std::uint64_t kListenTag = 2;
constexpr int kMaxEvents = 64;
constexpr int kListenBacklog = 256;  ///< every open_listener socket

void count(std::atomic<std::uint64_t>* counter, std::uint64_t delta = 1) {
  if (counter) counter->fetch_add(delta, std::memory_order_relaxed);
}

void uncount(std::atomic<std::uint64_t>* counter) {
  if (counter) counter->fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace

Listener open_listener(const std::string& bind_address, std::uint16_t port,
                       const std::string& auth_token) {
  in_addr address{};
  if (::inet_pton(AF_INET, bind_address.c_str(), &address) != 1)
    throw std::runtime_error("bad bind address '" + bind_address +
                             "' (expected IPv4 dotted quad)");
  const bool loopback = (ntohl(address.s_addr) >> 24) == 127;  // 127.0.0.0/8
  if (!loopback && auth_token.empty())
    throw std::runtime_error(
        "refusing to bind non-loopback address '" + bind_address +
        "' without an auth token (set --auth-token)");

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0)
    throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = address;
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind(port " + std::to_string(port) +
                             "): " + err);
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("listen(): " + err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return Listener{fd, ntohs(addr.sin_port)};
}

EventLoop::EventLoop(Config config, Dispatcher dispatcher)
    : cfg_(config), dispatcher_(std::move(dispatcher)) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0)
    throw std::runtime_error("epoll_create1(): " +
                             std::string(std::strerror(errno)));
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const std::string err = std::strerror(errno);
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw std::runtime_error("eventfd(): " + err);
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  if (cfg_.listen_fd >= 0) {
    // EPOLLEXCLUSIVE: with several loops sharing the listen socket the
    // kernel wakes one of them per readiness instead of all.
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.u64 = kListenTag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfg_.listen_fd, &ev) != 0) {
      const std::string err = std::strerror(errno);
      ::close(wake_fd_);
      ::close(epoll_fd_);
      wake_fd_ = epoll_fd_ = -1;
      throw std::runtime_error("epoll_ctl(listen): " + err);
    }
  }
}

EventLoop::~EventLoop() {
  request_stop();
  join();
  for (auto& [id, conn] : connections_) {
    if (conn.fd >= 0) {
      ::close(conn.fd);
      uncount(cfg_.counters.connections_active);
    }
  }
  connections_.clear();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::start() {
  thread_ = std::thread([this] { run(); });
}

void EventLoop::request_stop() noexcept {
  stopping_.store(true, std::memory_order_release);
  wake();
}

void EventLoop::join() {
  if (thread_.joinable()) thread_.join();
}

void EventLoop::wake() noexcept {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  ssize_t n;
  do {
    n = ::write(wake_fd_, &one, sizeof one);
  } while (n < 0 && errno == EINTR);
  // EAGAIN means the counter is already nonzero — the loop will wake anyway.
}

void EventLoop::drain_wakeups() {
  std::uint64_t value;
  while (::read(wake_fd_, &value, sizeof value) > 0) {
  }
}

void EventLoop::run() {
  epoll_event events[kMaxEvents];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // unrecoverable: the server is shutting down anyway
    }
    stats_.epoll_wakeups.fetch_add(1, std::memory_order_relaxed);

    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag)
        drain_wakeups();
      else if (tag == kListenTag)
        accept_ready();
      else
        handle_event(tag, events[i].events);
    }
    run_completions();

    if (stopping_.load(std::memory_order_acquire)) {
      if (!draining_) begin_drain();
      if (connections_.empty()) return;
    }
  }
}

void EventLoop::run_completions() {
  std::vector<std::pair<std::uint64_t, HttpResponse>> ready;
  {
    const std::lock_guard<std::mutex> lock(completions_mutex_);
    ready.swap(completions_);
  }
  for (auto& [id, response] : ready) {
    stats_.completions.fetch_add(1, std::memory_order_relaxed);
    const auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    Connection& conn = it->second;
    if (conn.fd < 0) {
      // Zombie: the peer vanished while the request was computing. The
      // completion is the signal that the entry can finally be reaped.
      connections_.erase(it);
      continue;
    }
    conn.in_flight = false;
    update_interest(conn);  // resume reading
    if (!queue_response(conn, std::move(response))) continue;
    // The connection may have pipelined the next request behind this one.
    const auto again = connections_.find(id);
    if (again != connections_.end() && again->second.fd >= 0)
      (void)process_input(again->second);
  }
}

void EventLoop::begin_drain() {
  draining_ = true;
  if (cfg_.listen_fd >= 0)
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, cfg_.listen_fd, nullptr);

  std::vector<std::uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    Connection& conn = it->second;
    if (conn.fd < 0 || conn.in_flight) continue;  // finishes via completion
    if (!conn.in.empty()) {
      // A buffered complete request still gets its answer (with
      // Connection: close); a partial one can never complete now.
      (void)process_input(conn);
      const auto again = connections_.find(id);
      if (again == connections_.end()) continue;
      Connection& still = again->second;
      if (still.fd < 0 || still.in_flight) continue;
      if (!still.out.empty()) continue;  // close_after_write already set
      destroy(still);
      continue;
    }
    if (!conn.out.empty()) {
      conn.close_after_write = true;
      continue;
    }
    destroy(conn);
  }
}

void EventLoop::accept_ready() {
  for (;;) {
    const int fd = ::accept4(cfg_.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN: queue drained (or the listener is gone)
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    count(cfg_.counters.connections_total);
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);

    if (cfg_.counters.connections_active &&
        cfg_.counters.connections_active->fetch_add(
            1, std::memory_order_relaxed) >= cfg_.max_connections) {
      uncount(cfg_.counters.connections_active);
      count(cfg_.counters.connections_rejected);
      HttpResponse overloaded;
      overloaded.status = 503;
      overloaded.body = error_body("connection limit reached");
      overloaded.close_connection = true;
      (void)write_all(fd, serialize_response(overloaded));
      ::close(fd);
      continue;
    }

    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    const std::uint64_t id = next_id_++;
    Connection conn;
    conn.id = id;
    conn.fd = fd;
    connections_.emplace(id, std::move(conn));
    stats_.connections_open.fetch_add(1, std::memory_order_relaxed);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      connections_.erase(id);
      stats_.connections_open.fetch_sub(1, std::memory_order_relaxed);
      uncount(cfg_.counters.connections_active);
    }
  }
}

void EventLoop::handle_event(std::uint64_t id, std::uint32_t events) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  if (conn.fd < 0) return;  // zombie

  if (conn.in_flight && (events & (EPOLLHUP | EPOLLERR)) != 0) {
    destroy(conn);  // zombifies: the completion reaps the entry
    return;
  }
  if ((events & EPOLLOUT) != 0 || conn.want_write) {
    if (!flush_output(conn)) return;
  }
  if (!conn.in_flight &&
      (events & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0)
    (void)read_input(conn);
}

bool EventLoop::read_input(Connection& conn) {
  for (;;) {
    char chunk[16384];
    const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      conn.in.append(chunk, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof chunk)) break;  // likely drained
      continue;
    }
    if (n == 0) {
      conn.peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    destroy(conn);
    return false;
  }
  return process_input(conn);
}

bool EventLoop::process_input(Connection& conn) {
  const std::uint64_t id = conn.id;
  while (!conn.in_flight && !conn.close_after_write) {
    if (conn.in.empty()) {
      if (conn.peer_eof) {
        destroy(conn);
        return false;
      }
      return true;
    }

    ParseResult parsed = parse_http_request(conn.in, cfg_.limits);
    if (parsed.status == ParseStatus::need_more) {
      if (conn.peer_eof) {
        // The peer half-closed inside a request that can never complete
        // now: answer 400 naming where the stream stopped.
        count(cfg_.counters.bad_request_400);
        HttpResponse bad;
        bad.status = 400;
        bad.body = error_body(conn.in.find("\r\n\r\n") == std::string::npos
                                  ? "connection closed mid-request"
                                  : "connection closed mid-body");
        bad.close_connection = true;
        return queue_response(conn, std::move(bad));
      }
      stats_.read_stalls.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (parsed.status != ParseStatus::ok) {
      count(cfg_.counters.bad_request_400);
      HttpResponse bad;
      bad.status = parsed.status == ParseStatus::too_large         ? 413
                   : parsed.status == ParseStatus::not_implemented ? 501
                                                                   : 400;
      bad.body = error_body(parsed.error);
      bad.close_connection = true;
      return queue_response(conn, std::move(bad));
    }

    conn.in.erase(0, parsed.consumed);
    count(cfg_.counters.requests_total);
    conn.keep_alive = parsed.request.keep_alive();

    HttpResponse sync;
    const bool answered =
        dispatcher_(std::move(parsed.request), sync, make_completion(id));
    if (!answered) {
      // Deferred: single request in flight per connection — stop reading
      // until the completion lands (backpressure to the peer's TCP window).
      conn.in_flight = true;
      update_interest(conn);
      return true;
    }
    if (!queue_response(conn, std::move(sync))) return false;
    // queue_response may have destroyed the map slot via rehash? No —
    // unordered_map references are stable; but it may have *erased* conn.
    if (connections_.find(id) == connections_.end()) return false;
  }
  return true;
}

bool EventLoop::queue_response(Connection& conn, HttpResponse&& response) {
  const bool close = response.close_connection || !conn.keep_alive ||
                     stopping_.load(std::memory_order_relaxed);
  response.close_connection = close;
  conn.close_after_write |= close;
  conn.out += serialize_response(response);
  return flush_output(conn);
}

bool EventLoop::flush_output(Connection& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!conn.want_write) {
        conn.want_write = true;
        update_interest(conn);
        stats_.write_stalls.fetch_add(1, std::memory_order_relaxed);
      }
      return true;  // EPOLLOUT will resume the flush
    }
    destroy(conn);
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.want_write) {
    conn.want_write = false;
    update_interest(conn);
  }
  if (conn.close_after_write && !conn.in_flight) {
    destroy(conn);
    return false;
  }
  return true;
}

void EventLoop::update_interest(Connection& conn) {
  epoll_event ev{};
  ev.events = (conn.in_flight ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
              (conn.want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EventLoop::destroy(Connection& conn) {
  if (conn.fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
    stats_.connections_open.fetch_sub(1, std::memory_order_relaxed);
    uncount(cfg_.counters.connections_active);
  }
  // An in-flight request still owns a completion aimed at this id; keep the
  // entry as a zombie so run_completions can reap it exactly once.
  if (!conn.in_flight) connections_.erase(conn.id);
}

EventLoop::Completion EventLoop::make_completion(std::uint64_t id) {
  return [this, id](HttpResponse&& response) {
    {
      const std::lock_guard<std::mutex> lock(completions_mutex_);
      completions_.emplace_back(id, std::move(response));
    }
    wake();
  };
}

}  // namespace cloudwf::svc
