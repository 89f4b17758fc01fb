// The benchmark's own HTTP load generator.
//
// One thread drives every connection through epoll, nonblocking, and
// stamps each response the moment its last byte is read. Request i always
// travels on connection i % connections, so the protocol and tenant mix
// each connection carries is fixed by the request source.
//
//  - Closed loop: every connection keeps exactly one request outstanding;
//    the next is sent as soon as the previous answer arrives.
//  - Open loop: request i is due at start + i / rate. A timerfd wakes the
//    generator at each due time; a request whose connection is still busy
//    waits in that connection's backlog. Latency is measured from the due
//    time, so such waits count; generator lag is how late the thread
//    handled the due time itself.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One request as the generator sends it.
struct Outgoing {
  std::string wire;         ///< the complete HTTP request bytes
  std::uint32_t cells = 1;  ///< grid cells the answer carries
  bool keep_body = false;   ///< keep the response body for the checks
};

/// What came back for one request.
struct Answer {
  bool sent = false;
  int status = 0;   ///< 0: no response (transport failure or drain timeout)
  float at_s = 0;   ///< when the answer arrived, from the run's start
  std::uint32_t cells = 0;
};

/// At most this many bodies are kept per run, so memory does not grow with
/// throughput.
inline constexpr std::size_t kMaxKeptBodies = 2000;

struct LoadRun {
  double window_s = 0;
  std::vector<Answer> answers;  ///< by request index
  /// (index, body) of answers whose request asked to keep the body.
  std::vector<std::pair<std::uint64_t, std::string>> kept;
  std::vector<double> latency_ms;     ///< open loop, by index, from due time
  std::vector<double> lag_ms;         ///< open loop, by index
};

using Source = std::function<Outgoing(std::uint64_t index)>;

class LoadGen {
 public:
  LoadGen(std::uint16_t port, std::size_t connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Closed loop until `seconds` pass or every index below `end_index`
  /// was sent.
  [[nodiscard]] LoadRun closed(const Source& source, double seconds,
                               std::uint64_t end_index);
  /// Open loop: floor(rate * seconds) requests at a fixed rate. A request
  /// with no answer gets the longest latency the run could measure, so it
  /// ranks slower than every answered one.
  [[nodiscard]] LoadRun open(const Source& source, double rate,
                             double seconds);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    bool want_out = false;
    std::string in;
    bool busy = false;
    std::uint64_t index = 0;
    bool keep = false;
    std::deque<std::uint64_t> backlog;  ///< open loop: due, waiting
    std::uint64_t next = 0;             ///< closed loop: next index
  };

  bool reconnect(std::size_t c);
  void issue(std::size_t c, std::uint64_t index, const Source& source,
             LoadRun& run);
  void flush(std::size_t c);
  /// Reads what is available; returns completed (status, body) or marks a
  /// transport failure. Returns true when the in-flight request finished.
  bool on_readable(std::size_t c, int* status, std::string* body);
  void watch(std::size_t c);

  std::uint16_t port_;
  std::vector<Conn> conns_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
};

/// "METHOD target" request bytes with the given content type and headers.
[[nodiscard]] std::string http_request(
    const std::string& method, const std::string& target,
    const std::string& content_type, const std::string& body,
    const std::string& tenant = {});

}  // namespace perfbench
