// The coordinator side of the distributed sweep fabric.
//
// Two driving modes, one tracker:
//
//   Push — run_distributed() partitions the grid, then one coordinator
//   thread per worker leases shards from a ShardTracker and executes them
//   through a ShardTransport (HttpShardTransport POSTs /v1/shard to a
//   `cloudwf serve` instance; tests inject failing/slow fakes). A transport
//   failure fails the lease and the shard is re-issued to another worker.
//
//   Pull — CoordinatorServer listens on loopback, on one svc::EventLoop
//   (the service's nonblocking server core), and lets `cloudwf worker`
//   processes drive themselves: POST /v1/shard/lease hands out a spec
//   (204 once the sweep is finished, 503 when the worker should back off
//   and retry), POST /v1/shard/result reports rows (binary shard_response
//   frame or the JSON shard body). Lost workers are simply leases that
//   expire.
//
// Either way the merged result is exp::merge_shards over the tracker's
// rows — canonical grid order, certified bit-identical to the serial sweep
// by the differential tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "dist/tracker.hpp"
#include "exp/sweep_grid.hpp"
#include "svc/event_loop.hpp"
#include "svc/http.hpp"

namespace cloudwf::dist {

/// How a coordinator executes one shard on one worker. Implementations
/// block until the shard finishes; nullopt means the worker is lost or the
/// response was unusable (the caller fails the lease).
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;
  [[nodiscard]] virtual std::optional<std::vector<exp::SweepRow>> execute(
      const exp::ShardSpec& shard) = 0;
};

/// Push-mode transport: POST /v1/shard against a `cloudwf serve` instance.
class HttpShardTransport : public ShardTransport {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    bool binary = true;       ///< binproto frames; false = JSON bodies
    std::string auth_token;   ///< sent as X-Auth-Token when non-empty
  };

  explicit HttpShardTransport(Options options) : options_(std::move(options)) {}

  [[nodiscard]] std::optional<std::vector<exp::SweepRow>> execute(
      const exp::ShardSpec& shard) override;

 private:
  Options options_;
  svc::HttpClient client_;
};

struct CoordinatorOptions {
  /// Shards per worker: more shards than workers keeps everyone busy when
  /// shard runtimes vary, and bounds the work lost to a failure.
  std::size_t shards_per_worker = 4;
  TrackerConfig tracker;
};

/// A finished sweep: merged rows in canonical grid order plus the fabric's
/// bookkeeping (re-issues, duplicates, ...).
struct SweepOutcome {
  std::vector<exp::SweepRow> rows;
  TrackerStats stats;
  std::size_t shard_count = 0;
};

/// Push mode end to end: partition, drive every transport until the grid
/// completes, merge. Throws std::runtime_error when a shard exhausts its
/// attempts (every worker that tried it died).
[[nodiscard]] SweepOutcome run_distributed(
    const exp::SweepGridSpec& grid,
    const std::vector<std::shared_ptr<ShardTransport>>& workers,
    const CoordinatorOptions& options = {});

/// Pull-mode coordinator: the lease and result routes over the tracker,
/// served by one svc::EventLoop — one thread however many workers hold
/// keep-alive connections (at most the loop's 128; beyond that a worker is
/// answered 503 and retries). Binds loopback only (workers on other
/// machines connect to a `cloudwf serve` fleet in push mode instead — that
/// path has the auth token).
class CoordinatorServer {
 public:
  struct Config {
    std::uint16_t port = 0;  ///< 0 = ephemeral; see port()
    TrackerConfig tracker;
  };

  CoordinatorServer(std::vector<exp::ShardSpec> shards, Config config);
  ~CoordinatorServer();

  CoordinatorServer(const CoordinatorServer&) = delete;
  CoordinatorServer& operator=(const CoordinatorServer&) = delete;

  void start();
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Blocks until every shard completed (or the sweep died), then drains:
  /// the loop keeps serving until every worker connection has closed or no
  /// request has arrived for 1 s, so a worker whose keep-alive connection
  /// is open when the last shard completes still gets its 204. Then stops
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
