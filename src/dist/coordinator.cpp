#include "dist/coordinator.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>

#include "svc/binproto.hpp"
#include "svc/protocol.hpp"
#include "util/json.hpp"

namespace cloudwf::dist {

namespace {

constexpr const char* kDeadSweep =
    "distributed sweep failed: a shard exhausted its attempts (every worker "
    "that tried it was lost)";

/// The grid cut into at least `requested` slices, and into enough that no
/// slice is refused on the way: a worker rejects a shard over
/// svc::kMaxCellsPerShard, and the loop answers 413 to a result frame over
/// the HTTP body limit. A one-row frame with the grid's longest label
/// over-counts every row's share of the frame, so `rows * row_bytes` bounds
/// a frame of `rows` rows.
std::vector<exp::ShardSpec> partition(const exp::SweepGridSpec& grid,
                                      std::size_t requested) {
  exp::SweepRow widest;
  for (const std::string& label : grid.strategies)
    if (label.size() > widest.strategy.size()) widest.strategy = label;
  const std::uint64_t row_bytes =
      svc::encode_frame(svc::BinShardResponse{0, {widest}}).size();
  const std::uint64_t max_cells =
      std::min<std::uint64_t>(svc::kMaxCellsPerShard,
                              svc::HttpLimits{}.max_body_bytes / row_bytes);
  const std::uint64_t needed = (grid.cell_count() + max_cells - 1) / max_cells;
  return exp::partition_grid(
      grid, std::max<std::uint64_t>(requested, needed));
}

}  // namespace

CoordinatorServer::CoordinatorServer(const exp::SweepGridSpec& grid,
                                     std::size_t shards, Config config)
    : shards_(partition(grid, shards)),
      tracker_(shards_, config.tracker),
      config_(std::move(config)) {}

CoordinatorServer::~CoordinatorServer() { stop(); }

void CoordinatorServer::start() {
  if (started_) throw std::logic_error("CoordinatorServer::start called twice");
  const svc::Listener listener = svc::open_listener(
      config_.bind_address, config_.port, config_.auth_token);
  listen_fd_ = listener.fd;
  port_ = listener.port;
  started_ = true;

  svc::EventLoop::Config loop_cfg;
  loop_cfg.listen_fd = listen_fd_;
  loop_cfg.counters.connections_active = &connections_active_;
  loop_cfg.counters.requests_total = &requests_;
  loop_ = std::make_unique<svc::EventLoop>(
      loop_cfg, [this](svc::HttpRequest&& request, svc::HttpResponse& sync,
                       svc::EventLoop::Completion done) {
        return handle(std::move(request), sync, std::move(done));
      });
  loop_->start();
}

bool CoordinatorServer::handle(svc::HttpRequest&& request,
                               svc::HttpResponse& response,
                               svc::EventLoop::Completion /*done*/) {
  if (!svc::authorized(request, config_.auth_token)) {
    response.status = 401;
    response.body = svc::error_body("missing or bad X-Auth-Token");
    return true;
  }
  if (request.target == "/v1/shard/lease") {
    if (request.method != "POST") {
      response.status = 405;
      response.body = svc::error_body("use POST for /v1/shard/lease");
      return true;
    }
    const Acquired lease = tracker_.acquire();
    switch (lease.status) {
      case AcquireStatus::granted:
        response.body = svc::shard_request_body(lease.shard);
        return true;
      case AcquireStatus::wait:
        response.status = 503;
        response.body = svc::error_body("no shard available — retry");
        return true;
      case AcquireStatus::done:
        if (tracker_.dead()) {
          response.status = 410;  // the sweep failed: nothing left to do
          response.body = svc::error_body(kDeadSweep);
        } else {
          response.status = 204;  // sweep finished: the worker may exit
        }
        return true;
    }
  }

  if (request.target == "/v1/shard/result") {
    if (request.method != "POST") {
      response.status = 405;
      response.body = svc::error_body("use POST for /v1/shard/result");
      return true;
    }
    try {
      std::uint64_t shard_id = 0;
      std::vector<exp::SweepRow> rows;
      if (request.header("content-type") == svc::kBinaryContentType) {
        svc::BinFrame frame = svc::decode_frame(request.body);
        auto* decoded = std::get_if<svc::BinShardResponse>(&frame);
        if (decoded == nullptr)
          throw svc::BadRequest("expected a shard_response frame");
        shard_id = decoded->shard_id;
        rows = std::move(decoded->rows);
      } else {
        svc::ShardResult result =
            svc::decode_shard_result(util::Json::parse(request.body));
        shard_id = result.shard_id;
        rows = std::move(result.rows);
      }
      const bool accepted = tracker_.complete(shard_id, std::move(rows));
      util::Json body = util::Json::object();
      body["accepted"] = accepted;
      if (!accepted) body["reason"] = "duplicate or unknown shard";
      response.body = body.dump();
      return true;
    } catch (const std::exception& e) {
      response.status = 400;
      response.body = svc::error_body(e.what());
      return true;
    }
  }

  response.status = 404;
  response.body = svc::error_body("unknown endpoint '" + request.target +
                                  "' (/v1/shard/lease, /v1/shard/result)");
  return true;
}

SweepOutcome CoordinatorServer::finish() {
  tracker_.wait_finished();
  const bool was_dead = tracker_.dead();

  // Drain: a worker whose keep-alive connection is open right now is about
  // to ask for another lease and must get its 204 (or 410). Keep serving until every
  // connection has closed, or until kDrainIdle passes without a request (a
  // silent peer cannot hold the sweep open).
  constexpr auto kDrainIdle = std::chrono::seconds(1);
  constexpr auto kDrainPoll = std::chrono::milliseconds(10);
  std::uint64_t seen = requests_.load(std::memory_order_relaxed);
  auto idle_since = std::chrono::steady_clock::now();
  while (connections_active_.load(std::memory_order_relaxed) > 0) {
    std::this_thread::sleep_for(kDrainPoll);
    const std::uint64_t now_seen = requests_.load(std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    if (now_seen != seen) {
      seen = now_seen;
      idle_since = now;
    } else if (now - idle_since >= kDrainIdle) {
      break;
    }
  }
  stop();
  if (was_dead) throw std::runtime_error(kDeadSweep);

  SweepOutcome outcome;
  outcome.rows = exp::merge_shards(shards_, tracker_.results());
  outcome.stats = tracker_.stats();
  outcome.shard_count = shards_.size();
  return outcome;
}

void CoordinatorServer::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // The loop deregisters the listen fd and closes its connections while
  // draining; closing the listener last refuses a connect() racing the
  // drain instead of landing it on a recycled fd.
  if (loop_) {  // null only when the loop's constructor threw in start()
    loop_->request_stop();
    loop_->join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace cloudwf::dist
