// The coordinator of the distributed sweep fabric.
//
// CoordinatorServer partitions a sweep grid into shards and serves them to
// `cloudwf worker` processes on one svc::EventLoop (the service's
// nonblocking server core). Workers drive themselves:
//
//   POST /v1/shard/lease   200 + a shard spec (JSON), 503 back off and
//                          retry, 204 the sweep finished, 410 the sweep
//                          failed (a shard exhausted its attempts).
//   POST /v1/shard/result  a leased shard's rows: a binary shard_response
//                          frame, or JSON (svc::decode_shard_result).
//
// Lost workers are simply leases that expire; the ShardTracker re-issues
// them and speculates around stragglers. The merged result is
// exp::merge_shards over the tracker's rows — canonical grid order,
// certified bit-identical to the serial sweep by the differential tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/tracker.hpp"
#include "exp/sweep_grid.hpp"
#include "svc/event_loop.hpp"
#include "svc/http.hpp"

namespace cloudwf::dist {

/// A finished sweep: merged rows in canonical grid order plus the fabric's
/// bookkeeping (re-issues, duplicates, ...).
struct SweepOutcome {
  std::vector<exp::SweepRow> rows;
  TrackerStats stats;
  std::size_t shard_count = 0;
};

/// The lease and result routes over a ShardTracker, served by one
/// svc::EventLoop — one thread however many workers hold keep-alive
/// connections (at most the loop's 128; beyond that a worker is answered
/// 503 and retries).
class CoordinatorServer {
 public:
  struct Config {
    std::uint16_t port = 0;  ///< 0 = ephemeral; see port()
    /// IPv4 address to bind. Anything but loopback requires auth_token —
    /// start() refuses to expose an unauthenticated coordinator.
    std::string bind_address = "127.0.0.1";
    /// Shared secret. When non-empty, every request must carry it in
    /// X-Auth-Token (compared in constant time) or is answered 401.
    std::string auth_token;
    TrackerConfig tracker;
  };

  /// Partitions `grid` into `shards` contiguous slices, or more when a
  /// slice would be larger than a worker accepts or than its binary result
  /// frame can carry back (svc::kMaxCellsPerShard, the HTTP body limit).
  CoordinatorServer(const exp::SweepGridSpec& grid, std::size_t shards,
                    Config config);
  ~CoordinatorServer();

  CoordinatorServer(const CoordinatorServer&) = delete;
  CoordinatorServer& operator=(const CoordinatorServer&) = delete;

  void start();
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Blocks until every shard completed (or the sweep died), then drains:
  /// the loop keeps serving until every worker connection has closed or no
  /// request has arrived for 1 s, so a worker whose keep-alive connection
  /// is open when the sweep ends still gets its 204 (or 410). Then stops
  /// the listener and returns the merged sweep. Throws std::runtime_error
  /// on a dead sweep.
  [[nodiscard]] SweepOutcome finish();

  void stop();

  [[nodiscard]] const ShardTracker& tracker() const noexcept {
    return tracker_;
  }

 private:
  /// The loop's dispatcher: every route answers inline (returns true).
  bool handle(svc::HttpRequest&& request, svc::HttpResponse& response,
              svc::EventLoop::Completion done);

  std::vector<exp::ShardSpec> shards_;
  ShardTracker tracker_;
  Config config_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::unique_ptr<svc::EventLoop> loop_;  ///< after the counters it updates
};

}  // namespace cloudwf::dist
