// cloudwf_load — load generator for `cloudwf serve`.
//
//   cloudwf_load --port N [--host 127.0.0.1] [--requests 200]
//                [--concurrency 4] [--mode closed|open] [--rate 200]
//                [--pool N] [--endpoint evaluate|rank|health|mix]
//                [--workflow montage] [--strategy AllParExceed-m]
//                [--scenario pareto] [--seeds 100] [--tenants N]
//                [--binary] [--tolerate-429] [--json FILE]
//
// Two standard load models:
//
//  - closed (default): `concurrency` connections, each firing its next
//    request the moment the previous response lands — measures sustainable
//    throughput at a fixed multiprogramming level.
//  - open: request start times are scheduled on a fixed global rate
//    (`--rate` req/s) regardless of completions, and latency is measured
//    from the *scheduled* start, so queueing delay behind a slow response
//    is charged to the result (no coordinated omission).
//
// --pool N (open loop only) gives each worker a pool of N keep-alive
// connections and rotates its scheduled sends across them, keeping up to N
// requests in flight per worker: a slow response delays only its own
// connection's next turn instead of head-of-line-blocking every subsequent
// scheduled request in the stream. Latency is still charged from the
// scheduled start until the response is collected.
//
// --tenants N registers t0..tN-1 via POST /v1/tenants before the run and
// cycles an X-Tenant header across the traffic (every (N+1)-th request
// stays anonymous), exercising the multi-tenant request path under load.
//
// --binary switches the compute endpoints to the compact binary protocol
// (svc/binproto.hpp): requests are encoded frames sent with the binary
// Content-Type, and every 2xx response body must decode back to the
// matching response frame — a decode failure counts as an error.
//
// Per-request latencies feed a p50/p95/p99 report; --json also writes it
// as one object: the run's settings, ok/rejected_429/errors counts,
// wall_s, requests_per_second and p50_ms/p95_ms/p99_ms.
// Exit status is nonzero when any request failed (non-2xx or transport),
// except 429 rejections when --tolerate-429 is given.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "svc/binproto.hpp"
#include "svc/http.hpp"
#include "svc/protocol.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using cloudwf::svc::HttpClient;
using cloudwf::svc::HttpResponse;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t requests = 200;
  std::size_t concurrency = 4;
  std::string mode = "closed";
  double rate = 200.0;     // open-loop target req/s
  std::size_t pool = 1;    // keep-alive connections per worker (open loop)
  std::string endpoint = "evaluate";
  std::string workflow = "montage";
  std::string strategy = "AllParExceed-m";
  std::string scenario = "pareto";
  std::size_t seeds = 100;  // seed values cycle over [0, seeds)
  std::size_t tenants = 0;  // 0 = all-anonymous traffic
  bool binary = false;      // compact binary protocol for compute endpoints
  bool tolerate_429 = false;
  std::string json_path;
};

struct RequestSpec {
  std::string method;
  std::string target;
  std::string body;
  bool binary = false;  // body is a binproto frame; response must decode
};

RequestSpec make_spec(const Options& opt, std::size_t index) {
  const std::uint64_t seed = opt.seeds == 0 ? 0 : index % opt.seeds;
  std::string kind = opt.endpoint;
  if (kind == "mix") {
    // Deterministic 3:1:1 evaluate/rank/health blend.
    const std::size_t slot = index % 5;
    kind = slot < 3 ? "evaluate" : (slot == 3 ? "rank" : "health");
  }
  if (kind == "health") return {"GET", "/health", "", false};
  if (kind == "stats") return {"GET", "/stats", "", false};

  if (opt.binary) {
    const cloudwf::workload::ScenarioKind scenario =
        cloudwf::svc::parse_scenario(opt.scenario);
    if (kind == "rank") {
      cloudwf::svc::RankRequest req;
      req.workflow = opt.workflow;
      req.scenario = scenario;
      req.seed = seed;
      return {"POST", "/v1/rank", cloudwf::svc::encode_frame(req), true};
    }
    cloudwf::svc::EvaluateRequest req;
    req.workflow = opt.workflow;
    req.strategy = opt.strategy;
    req.scenario = scenario;
    req.seed_begin = req.seed_end = seed;
    return {"POST", "/v1/evaluate", cloudwf::svc::encode_frame(req), true};
  }

  cloudwf::util::Json body = cloudwf::util::Json::object();
  body["workflow"] = opt.workflow;
  body["scenario"] = opt.scenario;
  body["seed"] = static_cast<std::int64_t>(seed);
  if (kind == "rank") return {"POST", "/v1/rank", body.dump(), false};
  body["strategy"] = opt.strategy;
  return {"POST", "/v1/evaluate", body.dump(), false};
}

struct WorkerResult {
  std::vector<double> latencies_ms;  // successful requests only
  std::map<int, std::uint64_t> status_counts;
  std::uint64_t transport_errors = 0;
  std::uint64_t decode_errors = 0;  // 2xx whose binary body failed to decode
};

/// A binary 2xx body must decode to the response frame matching its target.
bool binary_response_ok(const std::string& target, const std::string& body) {
  try {
    const cloudwf::svc::BinFrame frame = cloudwf::svc::decode_frame(body);
    if (target == "/v1/rank")
      return std::holds_alternative<cloudwf::svc::BinRankResponse>(frame);
    return std::holds_alternative<cloudwf::svc::BinEvaluateResponse>(frame);
  } catch (const cloudwf::svc::BinProtoError&) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  using cloudwf::util::parse_double;
  using cloudwf::util::parse_size;
  using cloudwf::util::parse_u16;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") opt.host = value();
    else if (arg == "--port") opt.port = parse_u16(value(), "--port", 1);
    else if (arg == "--requests") opt.requests = parse_size(value(), "--requests", 1);
    else if (arg == "--concurrency") opt.concurrency = parse_size(value(), "--concurrency");
    else if (arg == "--mode") opt.mode = value();
    else if (arg == "--rate") opt.rate = parse_double(value(), "--rate", 1e-9);
    else if (arg == "--pool") opt.pool = parse_size(value(), "--pool");
    else if (arg == "--endpoint") opt.endpoint = value();
    else if (arg == "--workflow") opt.workflow = value();
    else if (arg == "--strategy") opt.strategy = value();
    else if (arg == "--scenario") opt.scenario = value();
    else if (arg == "--seeds") opt.seeds = parse_size(value(), "--seeds");
    else if (arg == "--tenants") opt.tenants = parse_size(value(), "--tenants");
    else if (arg == "--binary") opt.binary = true;
    else if (arg == "--tolerate-429") opt.tolerate_429 = true;
    else if (arg == "--json") opt.json_path = value();
    else {
      std::cerr << "usage: cloudwf_load --port N [--host H] [--requests N]\n"
                   "  [--concurrency C] [--mode closed|open] [--rate R]\n"
                   "  [--pool N] [--endpoint evaluate|rank|health|stats|mix]\n"
                   "  [--workflow W] [--strategy S] [--scenario K] [--seeds N]\n"
                   "  [--tenants N] [--binary] [--tolerate-429] [--json FILE]\n";
      return 2;
    }
  }
  if (opt.port == 0) {
    std::cerr << "error: --port is required\n";
    return 2;
  }
  if (opt.mode != "closed" && opt.mode != "open") {
    std::cerr << "error: --mode must be closed or open\n";
    return 2;
  }
  if (opt.concurrency == 0) opt.concurrency = 1;
  if (opt.concurrency > opt.requests) opt.concurrency = opt.requests;
  if (opt.pool == 0) opt.pool = 1;
  if (opt.pool > 1 && opt.mode != "open") {
    std::cerr << "error: --pool only applies to --mode open\n";
    return 2;
  }

  // Tenant names cycled into X-Tenant headers; index `opt.tenants` (the
  // last slot of the cycle) means "send anonymously".
  std::vector<std::string> tenant_names;
  for (std::size_t i = 0; i < opt.tenants; ++i)
    tenant_names.push_back("t" + std::to_string(i));
  if (!tenant_names.empty()) {
    HttpClient admin;
    if (!admin.connect(opt.host, opt.port)) {
      std::cerr << "error: cannot connect to register tenants\n";
      return 1;
    }
    for (const std::string& name : tenant_names) {
      const auto response = admin.request("POST", "/v1/tenants",
                                          R"({"name":")" + name + R"("})");
      // 400 means the name is already registered (reusing a live server
      // across runs) — that's fine; anything else is a hard failure.
      if (!response || (response->status != 201 && response->status != 400)) {
        std::cerr << "error: registering tenant " << name << " failed\n";
        return 1;
      }
    }
  }

  const bool open_loop = opt.mode == "open";
  std::vector<WorkerResult> results(opt.concurrency);
  std::atomic<std::size_t> next_index{0};

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(opt.concurrency);
  for (std::size_t w = 0; w < opt.concurrency; ++w) {
    workers.emplace_back([&, w] {
      WorkerResult& mine = results[w];

      const auto tenant_headers = [&](std::size_t index) {
        std::vector<std::pair<std::string, std::string>> headers;
        if (!tenant_names.empty()) {
          const std::size_t slot = index % (tenant_names.size() + 1);
          if (slot < tenant_names.size())
            headers.emplace_back("X-Tenant", tenant_names[slot]);
        }
        return headers;
      };

      if (open_loop && opt.pool > 1) {
        // Pooled open loop: rotate this worker's scheduled sends across a
        // pool of keep-alive connections (send/receive split on HttpClient)
        // so up to `pool` requests stay in flight and a slow response only
        // blocks its own connection's next turn.
        struct Pending {
          Clock::time_point begin;
          RequestSpec spec;
        };
        std::vector<HttpClient> clients(opt.pool);
        std::vector<std::optional<Pending>> pending(opt.pool);
        for (HttpClient& client : clients)
          if (!client.connect(opt.host, opt.port)) {
            ++mine.transport_errors;
            return;
          }
        // Collects the outstanding response on `slot` (if any), charging
        // latency from the request's scheduled start to now.
        const auto settle = [&](std::size_t slot) {
          if (!pending[slot]) return;
          const std::optional<HttpResponse> response = clients[slot].receive();
          const double ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - pending[slot]->begin)
                                .count();
          const RequestSpec spec = std::move(pending[slot]->spec);
          pending[slot].reset();
          if (!response) {
            ++mine.transport_errors;
            (void)clients[slot].connect(opt.host, opt.port);
            return;
          }
          ++mine.status_counts[response->status];
          if (response->status >= 200 && response->status < 300) {
            if (spec.binary && !binary_response_ok(spec.target, response->body))
              ++mine.decode_errors;
            else
              mine.latencies_ms.push_back(ms);
          }
        };
        std::size_t turn = 0;
        for (;;) {
          const std::size_t index =
              next_index.fetch_add(1, std::memory_order_relaxed);
          if (index >= opt.requests) break;
          const RequestSpec spec = make_spec(opt, index);
          const auto scheduled =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(index) / opt.rate));
          std::this_thread::sleep_until(scheduled);
          const std::size_t slot = turn++ % opt.pool;
          settle(slot);  // free the connection before reusing it
          if (!clients[slot].send(
                  spec.method, spec.target, spec.body, tenant_headers(index),
                  spec.binary ? std::string(cloudwf::svc::kBinaryContentType)
                              : "application/json")) {
            ++mine.transport_errors;
            (void)clients[slot].connect(opt.host, opt.port);
            continue;
          }
          pending[slot] = Pending{scheduled, spec};
        }
        for (std::size_t slot = 0; slot < opt.pool; ++slot) settle(slot);
        return;
      }

      HttpClient client;
      if (!client.connect(opt.host, opt.port)) {
        // Count every request this worker would have issued as failed.
        ++mine.transport_errors;
        return;
      }
      for (;;) {
        const std::size_t index =
            next_index.fetch_add(1, std::memory_order_relaxed);
        if (index >= opt.requests) return;
        const RequestSpec spec = make_spec(opt, index);

        Clock::time_point begin = Clock::now();
        if (open_loop) {
          // Scheduled start: t0 + index/rate. Latency is measured from the
          // schedule, so a late start (previous response still pending on
          // this connection) shows up in the tail instead of vanishing.
          const auto scheduled =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(index) / opt.rate));
          std::this_thread::sleep_until(scheduled);
          begin = scheduled;
        }

        const std::optional<HttpResponse> response = client.request(
            spec.method, spec.target, spec.body, tenant_headers(index),
            spec.binary ? std::string(cloudwf::svc::kBinaryContentType)
                        : "application/json");
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - begin)
                .count();
        if (!response) {
          ++mine.transport_errors;
          if (!client.connect(opt.host, opt.port)) return;
          continue;
        }
        ++mine.status_counts[response->status];
        if (response->status >= 200 && response->status < 300) {
          if (spec.binary && !binary_response_ok(spec.target, response->body)) {
            ++mine.decode_errors;
            continue;
          }
          mine.latencies_ms.push_back(ms);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> latencies;
  std::map<int, std::uint64_t> statuses;
  std::uint64_t transport_errors = 0;
  std::uint64_t decode_errors = 0;
  for (const WorkerResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    transport_errors += r.transport_errors;
    decode_errors += r.decode_errors;
    for (const auto& [status, count] : r.status_counts)
      statuses[status] += count;
  }
  std::sort(latencies.begin(), latencies.end());

  std::uint64_t ok = 0, rejected = 0, errors = transport_errors;
  for (const auto& [status, count] : statuses) {
    if (status >= 200 && status < 300) ok += count;
    else if (status == 429) rejected += count;
    else errors += count;
  }
  // A 2xx whose binary body failed to decode is an error, not a success.
  ok -= decode_errors;
  errors += decode_errors;
  if (!opt.tolerate_429) errors += rejected;

  using cloudwf::util::format_double;
  using cloudwf::util::percentile;
  const double throughput = wall_s > 0 ? static_cast<double>(ok) / wall_s : 0;
  const double p50 = latencies.empty() ? 0 : percentile(latencies, 50);
  const double p95 = latencies.empty() ? 0 : percentile(latencies, 95);
  const double p99 = latencies.empty() ? 0 : percentile(latencies, 99);

  std::cout << "cloudwf_load: " << opt.mode << "-loop, " << opt.requests
            << " requests, " << opt.concurrency << " connections"
            << (opt.pool > 1 ? " x pool " + std::to_string(opt.pool) : "")
            << ", endpoint " << opt.endpoint
            << (opt.binary ? " (binary)" : "") << '\n'
            << "  wall        " << format_double(wall_s, 2) << " s\n"
            << "  ok          " << ok << " (" << format_double(throughput, 1)
            << " req/s)\n"
            << "  rejected429 " << rejected << '\n'
            << "  errors      " << errors << '\n';
  if (!latencies.empty()) {
    std::cout << "  latency ms  p50 " << format_double(p50, 2) << " | p95 "
              << format_double(p95, 2) << " | p99 " << format_double(p99, 2)
              << " | max " << format_double(latencies.back(), 2) << '\n';
  }
  for (const auto& [status, count] : statuses)
    if (status < 200 || status >= 300)
      std::cout << "  status " << status << "     x" << count << '\n';

  if (!opt.json_path.empty()) {
    cloudwf::util::Json doc = cloudwf::util::Json::object();
    doc["benchmark"] = "cloudwf_load";
    doc["mode"] = opt.mode;
    doc["endpoint"] = opt.endpoint;
    doc["protocol"] = opt.binary ? "binary" : "json";
    doc["requests"] = opt.requests;
    doc["concurrency"] = opt.concurrency;
    doc["pool"] = static_cast<std::int64_t>(opt.pool);
    doc["ok"] = static_cast<std::int64_t>(ok);
    doc["rejected_429"] = static_cast<std::int64_t>(rejected);
    doc["errors"] = static_cast<std::int64_t>(errors);
    doc["wall_s"] = wall_s;
    doc["requests_per_second"] = throughput;
    doc["p50_ms"] = p50;
    doc["p95_ms"] = p95;
    doc["p99_ms"] = p99;
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "error: cannot write " << opt.json_path << '\n';
      return 1;
    }
    out << doc.dump() << '\n';
    std::cout << "wrote " << opt.json_path << '\n';
  }

  return errors > 0 ? 1 : 0;
} catch (const std::exception& e) {
  // Bad flag values (util/parse.hpp names the offending flag) and any other
  // setup failure: readable diagnostic, exit 1.
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
