#include "dist/coordinator.hpp"

#include <netinet/in.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>

#include "svc/binproto.hpp"
#include "svc/protocol.hpp"
#include "util/json.hpp"

namespace cloudwf::dist {

std::optional<std::vector<exp::SweepRow>> HttpShardTransport::execute(
    const exp::ShardSpec& shard) {
  if (!client_.connected() &&
      !client_.connect(options_.host, options_.port))
    return std::nullopt;

  std::vector<std::pair<std::string, std::string>> headers;
  if (!options_.auth_token.empty())
    headers.emplace_back("X-Auth-Token", options_.auth_token);

  std::optional<svc::HttpResponse> response;
  if (options_.binary) {
    response = client_.request("POST", "/v1/shard",
                               svc::encode_frame(shard), headers,
                               svc::kBinaryContentType);
  } else {
    response = client_.request("POST", "/v1/shard",
                               svc::shard_request_body(shard), headers);
  }
  if (!response || response->status != 200) return std::nullopt;

  try {
    if (options_.binary) {
      svc::BinFrame frame = svc::decode_frame(response->body);
      auto* decoded = std::get_if<svc::BinShardResponse>(&frame);
      if (decoded == nullptr || decoded->shard_id != shard.shard_id)
        return std::nullopt;
      return std::move(decoded->rows);
    }
    const svc::ShardResult result =
        svc::decode_shard_result(util::Json::parse(response->body));
    if (result.shard_id != shard.shard_id) return std::nullopt;
    return result.rows;
  } catch (const std::exception&) {
    return std::nullopt;  // undecodable answer == lost worker
  }
}

SweepOutcome run_distributed(
    const exp::SweepGridSpec& grid,
    const std::vector<std::shared_ptr<ShardTransport>>& workers,
    const CoordinatorOptions& options) {
  if (workers.empty())
    throw std::invalid_argument("run_distributed needs at least one worker");
  const std::size_t shard_count = std::max<std::size_t>(
      1, workers.size() * std::max<std::size_t>(1, options.shards_per_worker));
  std::vector<exp::ShardSpec> shards = exp::partition_grid(grid, shard_count);
  ShardTracker tracker(shards, options.tracker);

  // One driver thread per worker: lease, execute, report, repeat. A failed
  // execute fails the lease so the tracker re-issues immediately instead of
  // waiting out the lease clock.
  std::vector<std::thread> drivers;
  drivers.reserve(workers.size());
  for (const std::shared_ptr<ShardTransport>& worker : workers) {
    drivers.emplace_back([&tracker, worker] {
      for (;;) {
        const Acquired lease = tracker.acquire_blocking();
        if (lease.status == AcquireStatus::done) return;
        std::optional<std::vector<exp::SweepRow>> rows =
            worker->execute(lease.shard);
        if (rows)
          tracker.complete(lease.shard.shard_id, std::move(*rows));
        else
          tracker.fail(lease.shard.shard_id);
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();

  if (tracker.dead())
    throw std::runtime_error(
        "distributed sweep failed: a shard exhausted its attempts (every "
        "worker that tried it was lost)");

  SweepOutcome outcome;
  outcome.rows = exp::merge_shards(shards, tracker.results());
  outcome.stats = tracker.stats();
  outcome.shard_count = shards.size();
  return outcome;
}

// --- pull-mode coordinator ---------------------------------------------

CoordinatorServer::CoordinatorServer(std::vector<exp::ShardSpec> shards,
                                     Config config)
    : shards_(std::move(shards)),
      tracker_(shards_, config.tracker),
      config_(config) {}

CoordinatorServer::~CoordinatorServer() { stop(); }

void CoordinatorServer::start() {
  if (started_) throw std::logic_error("CoordinatorServer::start called twice");
  const svc::Listener listener =
      svc::open_listener(INADDR_LOOPBACK, config_.port);
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
        response.status = 204;  // sweep finished: the worker may exit
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
  // to ask for another lease and must get its 204. Keep serving until every
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
  if (was_dead)
    throw std::runtime_error(
        "distributed sweep failed: a shard exhausted its attempts");

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
