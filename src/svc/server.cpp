#include "svc/server.hpp"

#include <unistd.h>

#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "svc/binproto.hpp"
#include "util/json.hpp"

namespace cloudwf::svc {

namespace {

std::size_t resolve_loop_count(std::size_t configured) {
  if (configured != 0) return configured;
  const std::size_t cores = std::thread::hardware_concurrency();
  const std::size_t auto_loops = cores / 4;
  return auto_loops < 1 ? 1 : (auto_loops > 4 ? 4 : auto_loops);
}

/// Semantic validation shared with the JSON path (decode_evaluate /
/// decode_rank run it inline; binary frames arrive pre-parsed and get the
/// same checks here so both protocols refuse identical requests).
void validate_evaluate(const EvaluateRequest& request) {
  validate_workflow_name(request.workflow);
  validate_strategy_label(request.strategy);
  if (request.seed_end < request.seed_begin)
    throw BadRequest("'seeds' range is inverted");
  if (request.seed_end - request.seed_begin + 1 > kMaxSeedsPerRequest)
    throw BadRequest("'seeds' range exceeds " +
                     std::to_string(kMaxSeedsPerRequest) +
                     " seeds per request");
}

void validate_rank(const RankRequest& request) {
  validate_workflow_name(request.workflow);
}

/// Cache key: the full request identity. Two requests with equal keys are
/// guaranteed byte-identical answers (deterministic handlers).
std::string compute_cache_key(bool binary, QueuedRequest::Kind kind,
                              const QueuedRequest& queued) {
  std::string key = binary ? "bin|" : "json|";
  if (kind == QueuedRequest::Kind::evaluate) {
    const EvaluateRequest& req = queued.evaluate;
    key += "evaluate|" + req.workflow + '|';
    key += workload::name_of(req.scenario);
    key += '|' + req.strategy + '|' + std::to_string(req.seed_begin) + '-' +
           std::to_string(req.seed_end);
  } else {
    const RankRequest& req = queued.rank;
    key += "rank|" + req.workflow + '|';
    key += workload::name_of(req.scenario);
    key += '|' + std::to_string(req.seed);
  }
  return key;
}

}  // namespace

Server::Server(ServerConfig config, cloud::Platform platform)
    : config_(config),
      platform_(std::move(platform)),
      pool_(config.workers == 0 ? 1 : config.workers),
      batcher_(platform_, pool_, Batcher::Config{config.max_queue},
               counters_) {}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) throw std::logic_error("Server::start called twice");
  const Listener listener =
      open_listener(config_.bind_address, config_.port, config_.auth_token);
  listen_fd_ = listener.fd;
  port_ = listener.port;
  started_ = true;

  // The server's recorder becomes the process-global one: loop threads and
  // pool workers all fall back to it, so request phases and scheduler
  // counters accumulate for /stats.
  obs::set_global_recorder(&recorder_);

  EventLoop::SharedCounters shared;
  shared.connections_total = &counters_.connections_total;
  shared.connections_active = &counters_.connections_active;
  shared.connections_rejected = &counters_.connections_rejected;
  shared.requests_total = &counters_.requests_total;
  shared.bad_request_400 = &counters_.bad_request_400;

  EventLoop::Config loop_cfg;
  loop_cfg.listen_fd = listen_fd_;
  loop_cfg.max_connections = config_.max_connections;
  loop_cfg.counters = shared;

  const std::size_t loop_count = resolve_loop_count(config_.event_loop_threads);
  loops_.reserve(loop_count);
  for (std::size_t i = 0; i < loop_count; ++i)
    loops_.push_back(std::make_unique<EventLoop>(
        loop_cfg, [this](HttpRequest&& request, HttpResponse& sync,
                         EventLoop::Completion done) {
          return dispatch(std::move(request), sync, std::move(done));
        }));
  for (auto& loop : loops_) loop->start();
}

void Server::stop() {
  const std::lock_guard<std::mutex> lock(stop_mutex_);
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);

  // 1. Every loop stops accepting, closes idle connections, answers what it
  // already read (with Connection: close) and exits once its last in-flight
  // completion is written out.
  for (auto& loop : loops_) loop->request_stop();
  for (auto& loop : loops_) loop->join();

  // 2. Run every admitted batch to completion before the workers exit.
  batcher_.drain();

  // 3. Only now close the listen socket: the loops deregistered it from
  // their epoll sets while draining, and closing it last means a connect()
  // racing the drain is refused instead of landing on a recycled fd.
  ::close(listen_fd_);
  listen_fd_ = -1;

  obs::set_global_recorder(nullptr);
}

bool Server::dispatch(HttpRequest&& request, HttpResponse& sync,
                      EventLoop::Completion done) {
  // Shared-secret gate: everything but the liveness probe requires the
  // token when one is configured. Checked before any routing or parsing so
  // unauthenticated bodies are never decoded.
  if (!authorized(request, config_.auth_token) && request.target != "/health") {
    counters_.unauthorized_401.fetch_add(1, std::memory_order_relaxed);
    sync.status = 401;
    sync.body = error_body("missing or bad X-Auth-Token");
    return true;
  }
  if (request.target == "/health") {
    counters_.requests_health.fetch_add(1, std::memory_order_relaxed);
    if (request.method != "GET") {
      sync.status = 405;
      sync.body = error_body("use GET for /health");
      return true;
    }
    sync.body = health_body();
    return true;
  }
  if (request.target == "/stats") {
    counters_.requests_stats.fetch_add(1, std::memory_order_relaxed);
    if (request.method != "GET") {
      sync.status = 405;
      sync.body = error_body("use GET for /stats");
      return true;
    }
    sync.body = stats_body();
    return true;
  }
  if (request.target == "/v1/tenants") {
    sync = handle_tenants(request);
    return true;
  }
  if (request.target == "/v1/evaluate")
    return handle_compute(std::move(request), QueuedRequest::Kind::evaluate,
                          sync, std::move(done));
  if (request.target == "/v1/rank")
    return handle_compute(std::move(request), QueuedRequest::Kind::rank, sync,
                          std::move(done));

  counters_.not_found_404.fetch_add(1, std::memory_order_relaxed);
  sync.status = 404;
  sync.body = error_body(
      "unknown endpoint '" + request.target +
      "' (/health, /stats, /v1/tenants, /v1/evaluate, /v1/rank)");
  return true;
}

std::optional<tenant::TenantId> Server::resolve_tenant(
    const HttpRequest& request, HttpResponse* error, double* weight) {
  *weight = 1.0;
  const std::string_view header = request.header("x-tenant");
  if (header.empty()) return tenant::kInvalidTenant;  // anonymous is fine
  const std::string name(header);
  const std::lock_guard<std::mutex> lock(tenants_mutex_);
  if (const std::optional<tenant::TenantId> id = tenants_.find(name)) {
    *weight = tenants_.spec(*id).weight;
    return id;
  }
  counters_.bad_request_400.fetch_add(1, std::memory_order_relaxed);
  error->status = 400;
  error->body = error_body("unknown tenant '" + name +
                           "' — register it via POST /v1/tenants");
  return std::nullopt;
}

bool Server::handle_compute(HttpRequest&& request, QueuedRequest::Kind kind,
                            HttpResponse& sync, EventLoop::Completion done) {
  const bool is_eval = kind == QueuedRequest::Kind::evaluate;
  (is_eval ? counters_.requests_evaluate : counters_.requests_rank)
      .fetch_add(1, std::memory_order_relaxed);

  const bool binary = request.header("content-type") == kBinaryContentType;
  const auto fail = [&](int status, const std::string& message) {
    sync.status = status;
    if (binary) {
      sync.content_type = kBinaryContentType;
      sync.body = bin_error_frame(status, message);
    } else {
      sync.body = error_body(message);
    }
    return true;
  };

  if (request.method != "POST")
    return fail(405, binary ? "use POST with a binary frame body"
                            : "use POST with a JSON body");

  double weight = 1.0;
  const std::optional<tenant::TenantId> tid =
      resolve_tenant(request, &sync, &weight);
  if (!tid) {
    // resolve_tenant filled a JSON 400; re-encode for binary clients.
    if (binary) return fail(400, "unknown tenant — register it via POST /v1/tenants");
    return true;
  }
  if (*tid != tenant::kInvalidTenant) {
    const std::lock_guard<std::mutex> lock(tenants_mutex_);
    (is_eval ? tenant_usage_[*tid].evaluate : tenant_usage_[*tid].rank) += 1;
  }

  QueuedRequest queued;
  queued.kind = kind;
  queued.binary = binary;
  queued.tenant = *tid;
  queued.tenant_weight = weight;
  try {
    if (binary) {
      BinFrame frame = decode_frame(request.body);
      if (is_eval) {
        auto* decoded = std::get_if<EvaluateRequest>(&frame);
        if (decoded == nullptr)
          throw BadRequest("expected an evaluate_request frame");
        queued.evaluate = std::move(*decoded);
        validate_evaluate(queued.evaluate);
      } else {
        auto* decoded = std::get_if<RankRequest>(&frame);
        if (decoded == nullptr) throw BadRequest("expected a rank_request frame");
        queued.rank = std::move(*decoded);
        validate_rank(queued.rank);
      }
    } else {
      const util::Json body = util::Json::parse(request.body);
      if (is_eval) {
        queued.evaluate = decode_evaluate(body);
        validate_strategy_label(queued.evaluate.strategy);
      } else {
        queued.rank = decode_rank(body);
      }
    }
  } catch (const BinProtoError& e) {
    counters_.bad_request_400.fetch_add(1, std::memory_order_relaxed);
    return fail(400, "binary frame error at offset " +
                         std::to_string(e.offset) + ": " + e.what());
  } catch (const util::JsonParseError& e) {
    counters_.bad_request_400.fetch_add(1, std::memory_order_relaxed);
    return fail(400, e.what());
  } catch (const BadRequest& e) {
    counters_.bad_request_400.fetch_add(1, std::memory_order_relaxed);
    return fail(400, e.what());
  }

  if (stopping_.load(std::memory_order_acquire)) {
    sync.close_connection = true;
    return fail(503, "server is draining");
  }

  // Deterministic handlers: an identical earlier answer is this answer.
  std::string cache_key;
  if (config_.response_cache_entries > 0) {
    cache_key = compute_cache_key(binary, kind, queued);
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = response_cache_.find(cache_key);
    if (it != response_cache_.end()) {
      counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      counters_.responses_ok.fetch_add(1, std::memory_order_relaxed);
      sync.body = it->second.body;
      sync.content_type = it->second.content_type;
      return true;
    }
    counters_.cache_misses.fetch_add(1, std::memory_order_relaxed);
  }

  queued.deadline = std::chrono::steady_clock::now() + config_.request_timeout;
  queued.on_ready = [this, key = std::move(cache_key),
                     done = std::move(done)](HttpResponse&& response) mutable {
    if (!key.empty() && response.status == 200) {
      const std::lock_guard<std::mutex> lock(cache_mutex_);
      if (response_cache_.size() >= config_.response_cache_entries)
        response_cache_.clear();
      response_cache_[key] = {response.body, response.content_type};
    }
    done(std::move(response));
  };

  if (!batcher_.submit(std::move(queued))) {
    counters_.rejected_429.fetch_add(1, std::memory_order_relaxed);
    return fail(429, "request queue full (" + std::to_string(config_.max_queue) +
                         " waiting) — retry with backoff");
  }
  return false;  // the batch worker answers through on_ready -> done
}

HttpResponse Server::handle_tenants(const HttpRequest& request) {
  counters_.requests_tenants.fetch_add(1, std::memory_order_relaxed);
  HttpResponse response;

  const auto tenant_json = [](tenant::TenantId id,
                              const tenant::TenantSpec& spec) {
    util::Json row = util::Json::object();
    row["tenant"] = static_cast<std::int64_t>(id);
    row["name"] = spec.name;
    row["weight"] = spec.weight;
    if (spec.max_running != std::numeric_limits<std::size_t>::max())
      row["max_running"] = static_cast<std::int64_t>(spec.max_running);
    return row;
  };

  if (request.method == "GET") {
    const std::lock_guard<std::mutex> lock(tenants_mutex_);
    util::Json list = util::Json::array();
    for (tenant::TenantId id = 0; id < tenants_.size(); ++id)
      list.push_back(tenant_json(id, tenants_.spec(id)));
    util::Json body = util::Json::object();
    body["tenants"] = std::move(list);
    response.body = body.dump();
    return response;
  }
  if (request.method != "POST") {
    response.status = 405;
    response.body = error_body("use POST to register or GET to list tenants");
    return response;
  }

  tenant::TenantSpec spec;
  try {
    const util::Json body = util::Json::parse(request.body);
    const util::Json* name = body.find("name");
    if (name == nullptr) throw BadRequest("missing field 'name'");
    spec.name = name->as_string();
    if (const util::Json* weight = body.find("weight"))
      spec.weight = weight->as_number();
    if (const util::Json* quota = body.find("max_running")) {
      const double q = quota->as_number();
      if (q < 1.0 || q != static_cast<double>(static_cast<std::size_t>(q)))
        throw BadRequest("'max_running' must be a positive integer");
      spec.max_running = static_cast<std::size_t>(q);
    }
  } catch (const util::JsonParseError& e) {
    counters_.bad_request_400.fetch_add(1, std::memory_order_relaxed);
    response.status = 400;
    response.body = error_body(e.what());
    return response;
  } catch (const std::exception& e) {  // BadRequest / Json type errors
    counters_.bad_request_400.fetch_add(1, std::memory_order_relaxed);
    response.status = 400;
    response.body = error_body(e.what());
    return response;
  }

  const std::lock_guard<std::mutex> lock(tenants_mutex_);
  try {
    const tenant::TenantId id = tenants_.add(std::move(spec));
    tenant_usage_.resize(tenants_.size());
    response.status = 201;
    response.body = tenant_json(id, tenants_.spec(id)).dump();
  } catch (const std::invalid_argument& e) {
    counters_.bad_request_400.fetch_add(1, std::memory_order_relaxed);
    response.status = 400;
    response.body = error_body(e.what());
  }
  return response;
}

std::string Server::health_body() const {
  util::Json body = util::Json::object();
  body["status"] =
      stopping_.load(std::memory_order_acquire) ? "draining" : "ok";
  body["workers"] = pool_.worker_count();
  body["queue_depth"] = batcher_.queue_depth();
  body["max_queue"] = config_.max_queue;
  body["connections_active"] =
      counters_.connections_active.load(std::memory_order_relaxed);
  return body.dump();
}

std::string Server::stats_body() const {
  const auto count = [](const std::atomic<std::uint64_t>& c) {
    return static_cast<std::int64_t>(c.load(std::memory_order_relaxed));
  };

  util::Json service = util::Json::object();
  service["requests_total"] = count(counters_.requests_total);
  service["requests_evaluate"] = count(counters_.requests_evaluate);
  service["requests_rank"] = count(counters_.requests_rank);
  service["unauthorized_401"] = count(counters_.unauthorized_401);
  service["requests_health"] = count(counters_.requests_health);
  service["requests_stats"] = count(counters_.requests_stats);
  service["requests_tenants"] = count(counters_.requests_tenants);
  service["responses_ok"] = count(counters_.responses_ok);
  service["rejected_429"] = count(counters_.rejected_429);
  service["bad_request_400"] = count(counters_.bad_request_400);
  service["not_found_404"] = count(counters_.not_found_404);
  service["timeout_504"] = count(counters_.timeout_504);
  service["errors_500"] = count(counters_.errors_500);
  service["batches_run"] = count(counters_.batches_run);
  service["requests_coalesced"] = count(counters_.requests_coalesced);
  service["queue_depth"] = batcher_.queue_depth();
  service["queue_depth_peak"] = count(counters_.queue_depth_peak);
  service["connections_total"] = count(counters_.connections_total);
  service["connections_active"] = count(counters_.connections_active);
  service["connections_rejected"] = count(counters_.connections_rejected);
  service["workers"] = pool_.worker_count();

  util::Json event_loops = util::Json::array();
  for (const auto& loop : loops_) {
    const EventLoopStats& stats = loop->stats();
    util::Json row = util::Json::object();
    row["connections_open"] = count(stats.connections_open);
    row["connections_accepted"] = count(stats.connections_accepted);
    row["epoll_wakeups"] = count(stats.epoll_wakeups);
    row["read_stalls"] = count(stats.read_stalls);
    row["write_stalls"] = count(stats.write_stalls);
    row["completions"] = count(stats.completions);
    event_loops.push_back(std::move(row));
  }

  util::Json cache = util::Json::object();
  cache["capacity"] = static_cast<std::int64_t>(config_.response_cache_entries);
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    cache["entries"] = static_cast<std::int64_t>(response_cache_.size());
  }
  cache["hits"] = count(counters_.cache_hits);
  cache["misses"] = count(counters_.cache_misses);

  const obs::CounterSnapshot snap = recorder_.counters();
  util::Json obs_counters = util::Json::object();
  obs_counters["events_recorded"] =
      static_cast<std::int64_t>(snap.events_recorded);
  obs_counters["events_dropped"] =
      static_cast<std::int64_t>(snap.events_dropped);
  obs_counters["vms_rented"] = static_cast<std::int64_t>(snap.vms_rented);
  obs_counters["vms_reused"] = static_cast<std::int64_t>(snap.vms_reused);
  obs_counters["btu_extends"] = static_cast<std::int64_t>(snap.btu_extends);
  obs_counters["tasks_placed"] = static_cast<std::int64_t>(snap.tasks_placed);
  obs_counters["upgrades_accepted"] =
      static_cast<std::int64_t>(snap.upgrades_accepted);
  obs_counters["upgrades_rejected"] =
      static_cast<std::int64_t>(snap.upgrades_rejected);

  util::Json phases = util::Json::object();
  for (const auto& [name, stat] : recorder_.phase_stats()) {
    util::Json row = util::Json::object();
    row["count"] = static_cast<std::int64_t>(stat.count);
    row["total_s"] = stat.total;
    row["min_s"] = stat.min;
    row["max_s"] = stat.max;
    phases[name] = std::move(row);
  }

  util::Json tenants = util::Json::object();
  {
    const std::lock_guard<std::mutex> lock(tenants_mutex_);
    for (tenant::TenantId id = 0; id < tenants_.size(); ++id) {
      util::Json row = util::Json::object();
      row["requests_evaluate"] =
          static_cast<std::int64_t>(tenant_usage_[id].evaluate);
      row["requests_rank"] = static_cast<std::int64_t>(tenant_usage_[id].rank);
      tenants[tenants_.spec(id).name] = std::move(row);
    }
  }

  util::Json body = util::Json::object();
  body["service"] = std::move(service);
  body["event_loops"] = std::move(event_loops);
  body["cache"] = std::move(cache);
  body["obs"] = std::move(obs_counters);
  body["phases"] = std::move(phases);
  body["tenants"] = std::move(tenants);
  body["uptime_s"] = recorder_.elapsed();
  return body.dump();
}

}  // namespace cloudwf::svc
