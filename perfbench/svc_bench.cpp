// svc-repeat: /v1/evaluate and /v1/rank traffic from a small working set
// against an in-process svc::Server over loopback HTTP.
//
// Untraced: set-up (server bound, tenants registered, warm-up traffic),
// then rounds of a closed loop (throughput) and an open loop at a fixed
// rate (latency), then the output checks. Traced: the same load phase for the
// /stats counters and generator lag, then a sequential replay of the first
// open-loop trial's requests on one connection to a fresh server. Each replayed
// request is re-executed in-process through the public functions the
// server calls, one span per call, and the production call
// (svc::evaluate_rows / svc::rank_rows) runs on the same input under its
// own span.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <unordered_map>
#include <variant>

#include "common.hpp"
#include "loadgen.hpp"
#include "replica.hpp"
#include "scheduling/baselines.hpp"
#include "scheduling/factory.hpp"
#include "svc/binproto.hpp"
#include "svc/handlers.hpp"
#include "svc/http.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

namespace svc = cloudwf::svc;
namespace sched = cloudwf::scheduling;
namespace wl = cloudwf::workload;
using cloudwf::util::Json;
using cloudwf::util::percentile;

// Load shape. Client threads plus server compute threads stay within the
// 4 cores of the reference host: 1 event loop + 2 workers + 1 generator
// thread, over 4 keep-alive connections of which connection 0 speaks the
// binary protocol.
constexpr std::size_t kConnections = 4;
constexpr std::size_t kEventLoops = 1;
constexpr std::size_t kWorkers = 2;
constexpr double kWarmupLimitS = 60.0;
/// The traced replay stops after this many requests or 30 % of --seconds.
constexpr std::uint64_t kMaxReplayed = 5000;
/// The load phase runs in rounds of a 1 s closed loop followed by three
/// 0.5 s open-loop trials, so throughput and latency both sample the host's
/// speed across the whole run rather than one stretch of it. Each trial
/// waits for its answers, so a slow stretch of the host cannot build a
/// backlog that spans the run.
constexpr double kClosedRoundS = 1.0;
constexpr double kClosedWindowS = 0.5;
constexpr std::size_t kTrialsPerRound = 3;
constexpr double kOpenTrialS = 0.5;
constexpr double kRoundS = kClosedRoundS + kTrialsPerRound * kOpenTrialS;
/// Index stride between closed rounds and between open-loop trials (more
/// than any of them sends).
constexpr std::uint64_t kTrialStride = 1ull << 20;
/// Closed rounds and open-loop trials whose sampled bodies are kept and
/// compared.
constexpr std::size_t kCheckedRounds = 1;
constexpr std::size_t kCheckedTrials = 4;
/// Open-loop rate and the tail percentile (see README.md): about a quarter
/// of the closed-loop capacity on the reference host, and about half of it
/// while that host runs slow. p99 there is set by host preemption; p90 is
/// the highest percentile that repeated from run to run.
constexpr double kOpenRate = 20000.0;
constexpr double kTailPercentile = 90.0;
/// Distinct requests; with both protocols that is 1024 response-cache keys,
/// well under the server's 8192.
constexpr std::size_t kWorkingSet = 512;
/// Every kSample-th response (seeded choice) is kept and compared byte for
/// byte.
constexpr std::uint64_t kSample = 16;
/// Index ranges of the phases, so every phase has its own inputs.
constexpr std::uint64_t kWarmBase = 0;
constexpr std::uint64_t kClosedBase = 1ull << 28;
constexpr std::uint64_t kOpenBase = 2ull << 28;

const std::array<std::string, 3> kTenants = {"tenant-a", "tenant-b",
                                             "tenant-c"};

struct SvcRequest {
  bool rank = false;
  bool binary = false;
  svc::EvaluateRequest evaluate;
  svc::RankRequest rank_request;
  std::string tenant;  ///< empty: anonymous
};

std::string body_of(const SvcRequest& r) {
  if (r.binary)
    return r.rank ? svc::encode_frame(r.rank_request)
                  : svc::encode_frame(r.evaluate);
  Json body = Json::object();
  if (r.rank) {
    body["workflow"] = r.rank_request.workflow;
    body["scenario"] = std::string(wl::name_of(r.rank_request.scenario));
    body["seed"] = static_cast<std::int64_t>(r.rank_request.seed);
  } else {
    body["workflow"] = r.evaluate.workflow;
    body["strategy"] = r.evaluate.strategy;
    body["scenario"] = std::string(wl::name_of(r.evaluate.scenario));
    if (r.evaluate.seed_begin == r.evaluate.seed_end) {
      body["seed"] = static_cast<std::int64_t>(r.evaluate.seed_begin);
    } else {
      Json seeds = Json::array();
      seeds.push_back(static_cast<std::int64_t>(r.evaluate.seed_begin));
      seeds.push_back(static_cast<std::int64_t>(r.evaluate.seed_end));
      body["seeds"] = std::move(seeds);
    }
  }
  return body.dump();
}

const char* content_type(bool binary) {
  return binary ? svc::kBinaryContentType : "application/json";
}

std::string wire_of(const SvcRequest& r) {
  return http_request("POST", r.rank ? "/v1/rank" : "/v1/evaluate",
                      content_type(r.binary), body_of(r), r.tenant);
}

std::uint32_t cells_of(const SvcRequest& r) {
  static const auto strategies =
      static_cast<std::uint32_t>(sched::paper_strategy_labels().size());
  return r.rank ? strategies
                : static_cast<std::uint32_t>(r.evaluate.seed_count());
}

/// The response-cache identity: protocol, endpoint and every field.
std::string key_of(const SvcRequest& r) {
  std::string key = r.binary ? "bin|" : "json|";
  if (r.rank)
    return key + "rank|" + r.rank_request.workflow + '|' +
           std::string(wl::name_of(r.rank_request.scenario)) + '|' +
           std::to_string(r.rank_request.seed);
  return key + "evaluate|" + r.evaluate.workflow + '|' +
         std::string(wl::name_of(r.evaluate.scenario)) + '|' +
         r.evaluate.strategy + '|' + std::to_string(r.evaluate.seed_begin) +
         '-' + std::to_string(r.evaluate.seed_end);
}

/// What the production handlers answer for `r`, called directly.
std::string expected_body(const SvcRequest& r,
                          const cloudwf::cloud::Platform& platform) {
  if (r.rank)
    return r.binary ? svc::rank_body_bin(r.rank_request, platform)
                    : svc::rank_body(r.rank_request, platform);
  return r.binary ? svc::evaluate_body_bin(r.evaluate, platform)
                  : svc::evaluate_body(r.evaluate, platform);
}

/// The generated traffic. Request `index` is a pure function of (workload
/// seed, index); index % kConnections is the connection it travels on, and
/// connection 0 speaks the binary protocol.
///
/// The mix is an assumption, not measured traffic (see README.md): 3
/// /v1/evaluate to 1 /v1/rank, as `cloudwf_load --endpoint mix` sends them;
/// a third of the evaluates ask for a 2-8-seed range; entries are picked
/// uniformly; the three tenants and anonymous are equally likely.
class Traffic {
 public:
  explicit Traffic(std::uint64_t seed) : key_(splitmix64(seed)) {
    // JSON carries seeds as doubles; the protocol caps them at 9e15.
    const std::uint64_t seed_base = (key_ >> 16) & ((1ull << 44) - 1);
    const std::vector<std::string> labels = sched::paper_strategy_labels();
    for (std::uint64_t e = 0; e < kWorkingSet; ++e) {
      const std::uint64_t h = splitmix64(key_ ^ (e * 0x9e3779b97f4a7c15ull));
      SvcRequest r;
      // By index, so every seed's working set has the same proportions.
      const std::uint64_t kind = e % 4;  // 0-1 single seed, 2 range, 3 rank
      const std::string& workflow = kPaperWorkflows[(h >> 8) % 4];
      const auto scenario =
          wl::kAllScenarioKinds[(h >> 12) % wl::kScenarioKindCount];
      const std::uint64_t first = seed_base + ((h >> 20) % 4096);
      if (kind == 3) {
        r.rank = true;
        r.rank_request = {workflow, scenario, first};
      } else {
        r.evaluate.workflow = workflow;
        r.evaluate.strategy = labels[(h >> 36) % labels.size()];
        r.evaluate.scenario = scenario;
        r.evaluate.seed_begin = first;
        r.evaluate.seed_end = kind == 2 ? first + 1 + (h >> 48) % 7 : first;
      }
      working_set_.push_back(std::move(r));
    }
    for (SvcRequest r : working_set_)
      for (const bool binary : {false, true}) {
        r.binary = binary;
        for (std::size_t t = 0; t <= kTenants.size(); ++t) {
          r.tenant = t < kTenants.size() ? kTenants[t] : std::string();
          wires_.push_back(wire_of(r));
        }
      }
  }

  [[nodiscard]] SvcRequest at(std::uint64_t index) const {
    const Pick p = pick(index);
    SvcRequest r = working_set_[p.entry];
    r.binary = index % kConnections == 0;
    if (p.tenant < kTenants.size()) r.tenant = kTenants[p.tenant];
    return r;
  }

  /// The request bytes of `index`, taken from the pre-encoded working set.
  [[nodiscard]] const std::string& wire(std::uint64_t index) const {
    const Pick p = pick(index);
    const bool binary = index % kConnections == 0;
    return wires_[(p.entry * 2 + (binary ? 1 : 0)) * (kTenants.size() + 1) +
                  p.tenant];
  }

  /// Whether the checks keep and compare this response.
  [[nodiscard]] bool sampled(std::uint64_t index) const {
    return splitmix64(key_ ^ ~index) % kSample == 0;
  }

  /// Warm-up sends every working-set entry once on every connection.
  [[nodiscard]] static std::uint64_t warmup_requests() {
    return kWorkingSet * kConnections;
  }

  /// Requests from index `base` on; `check` keeps the sampled bodies.
  [[nodiscard]] Source source(std::uint64_t base, bool check = true) const {
    return [this, base, check](std::uint64_t i) {
      return Outgoing{wire(base + i), cells_of(at(base + i)),
                      check && sampled(base + i)};
    };
  }

 private:
  struct Pick {
    std::size_t entry = 0;
    std::size_t tenant = 0;  ///< kTenants.size(): anonymous
  };

  /// The working-set entry and tenant of request `index`. Warm-up sends
  /// every entry once per connection, anonymously.
  [[nodiscard]] Pick pick(std::uint64_t index) const {
    if (index < kClosedBase)
      return {static_cast<std::size_t>((index / kConnections) % kWorkingSet),
              kTenants.size()};
    const std::uint64_t h = splitmix64(key_ + index);
    return {static_cast<std::size_t>(h % kWorkingSet),
            static_cast<std::size_t>((h >> 32) % (kTenants.size() + 1))};
  }

  std::uint64_t key_;
  std::vector<SvcRequest> working_set_;
  std::vector<std::string> wires_;  ///< by (entry, binary, tenant)
};

svc::ServerConfig server_config() {
  svc::ServerConfig config;
  config.port = 0;
  config.workers = kWorkers;
  config.event_loop_threads = kEventLoops;
  return config;
}

svc::HttpClient connect_client(std::uint16_t port) {
  svc::HttpClient client;
  if (!client.connect("127.0.0.1", port))
    throw std::runtime_error("cannot reach the server");
  return client;
}

/// Weights 1, 2 and 4: distinct, so the batcher's weighted pick has unequal
/// credits to hand out.
void register_tenants(std::uint16_t port) {
  svc::HttpClient client = connect_client(port);
  double weight = 1.0;
  for (const std::string& name : kTenants) {
    Json body = Json::object();
    body["name"] = name;
    body["weight"] = weight;
    weight *= 2.0;
    const auto answer = client.request("POST", "/v1/tenants", body.dump());
    if (!answer || answer->status != 201)
      throw std::runtime_error("tenant registration failed for " + name);
  }
}

struct StatsSnapshot {
  double hits = 0, misses = 0, batches = 0, coalesced = 0, queue_peak = 0,
         refused = 0;
};

StatsSnapshot read_stats(std::uint16_t port) {
  const auto answer = connect_client(port).request("GET", "/stats");
  if (!answer || answer->status != 200)
    throw std::runtime_error("GET /stats failed");
  const Json stats = Json::parse(answer->body);
  const auto field = [&](const char* group, const char* name) {
    const Json* g = stats.find(group);
    const Json* v = g ? g->find(name) : nullptr;
    if (v == nullptr || !v->is_number())
      throw std::runtime_error(std::string("/stats lacks ") + group + "." + name);
    return v->as_number();
  };
  StatsSnapshot s;
  s.hits = field("cache", "hits");
  s.misses = field("cache", "misses");
  s.batches = field("service", "batches_run");
  s.coalesced = field("service", "requests_coalesced");
  s.queue_peak = field("service", "queue_depth_peak");
  s.refused = field("service", "rejected_429") +
              field("service", "timeout_504") +
              field("service", "connections_rejected");
  return s;
}

/// A running server with its load generator, warmed up.
struct Rig {
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<LoadGen> gen;
  LoadRun warmup;
};

Rig set_up(const Traffic& traffic) {
  Rig rig;
  rig.server = std::make_unique<svc::Server>(server_config());
  rig.server->start();
  register_tenants(rig.server->port());
  rig.gen = std::make_unique<LoadGen>(rig.server->port(), kConnections);
  rig.warmup = rig.gen->closed(traffic.source(kWarmBase), kWarmupLimitS,
                               Traffic::warmup_requests());
  return rig;
}

/// Status of every sent request, and the kept bodies byte for byte against
/// a direct call of the production handler on the same request.
void check_answers(const Traffic& traffic, std::uint64_t base,
                   const LoadRun& run, Report& report,
                   std::unordered_map<std::string, std::string>& expected) {
  const cloudwf::cloud::Platform platform = cloudwf::cloud::Platform::ec2();
  for (std::uint64_t i = 0; i < run.answers.size(); ++i) {
    const Answer& a = run.answers[i];
    if (!a.sent) continue;
    ++report.attempted;
    if (a.status < 200 || a.status >= 300)
      report.fail("request " + std::to_string(base + i) + " answered " +
                  std::to_string(a.status));
  }
  for (const auto& [i, body] : run.kept) {
    if (run.answers[i].status < 200 || run.answers[i].status >= 300) continue;
    const SvcRequest r = traffic.at(base + i);
    std::string key = key_of(r);
    auto it = expected.find(key);
    if (it == expected.end())
      it = expected.emplace(std::move(key), expected_body(r, platform)).first;
    if (body != it->second)
      report.fail("request " + std::to_string(base + i) +
                  ": body differs from the direct handler call");
  }
}

bool ok(const Answer& a) {
  return a.sent && a.status >= 200 && a.status < 300;
}

/// What the throughput figures need from the closed rounds. Each round is
/// folded in and dropped as it ends, so memory does not grow with
/// throughput.
struct ClosedTally {
  std::vector<double> window_rps;  ///< 2xx answers per second, per window
  double answers = 0;              ///< 2xx answers
  double cells = 0;                ///< grid cells they carried

  void add(const LoadRun& run) {
    const auto windows = static_cast<std::size_t>(
        std::max(1.0, std::floor(run.window_s / kClosedWindowS)));
    const double width = run.window_s / static_cast<double>(windows);
    std::vector<double> per(windows, 0.0);
    for (const Answer& a : run.answers) {
      if (!ok(a)) continue;
      answers += 1.0;
      cells += a.cells;
      const auto at = static_cast<double>(a.at_s);
      if (at < run.window_s)
        per[std::min(windows - 1, static_cast<std::size_t>(at / width))] += 1.0;
    }
    for (const double n : per) window_rps.push_back(n / width);
  }

  /// The fastest decile (p90) of the windows. The reference host runs whole
  /// stretches of a run fast or slow (README.md), so the mean over the
  /// windows reads the share of slow stretches; p90 reads the program on
  /// the fast ones. A change that slows fewer than about nine in ten
  /// windows does not move it.
  [[nodiscard]] double rate() const { return percentile(window_rps, 90.0); }
  [[nodiscard]] double cells_per_answer() const {
    return answers > 0 ? cells / answers : 0;
  }
};

/// Each open-loop trial's tail percentile, and the fastest decile (p10) of
/// those over the trials. In the reference host's slow stretches more than
/// half the trials' p90 rose from 0.06 to 2-4 ms, so neither the pooled p90
/// nor the median trial's repeated (README.md). A change that slows the tail
/// of fewer than about nine in ten trials does not move it.
double trial_tail(const std::vector<LoadRun>& trials) {
  std::vector<double> per;
  for (const LoadRun& t : trials)
    per.push_back(percentile(t.latency_ms, kTailPercentile));
  return percentile(per, 10.0);
}

// ---- traced replay ------------------------------------------------------

/// Span names of the request-level grouping spans.
struct Spans {
  explicit Spans(Trace& t)
      : request(t.name("svc.request")),
        replica(t.name("replica")),
        replica_evaluate(t.name("replica:svc.evaluate_rows")),
        replica_rank(t.name("replica:svc.rank_rows")),
        prod_evaluate(t.name("prod:svc.evaluate_rows")),
        prod_rank(t.name("prod:svc.rank_rows")) {}
  Trace::Id request, replica, replica_evaluate, replica_rank, prod_evaluate,
      prod_rank;
};

/// svc::evaluate_rows, call by call.
std::vector<svc::ResultRow> replica_evaluate_rows(
    const Layers& layers, const Spans& spans, const svc::EvaluateRequest& req,
    const cloudwf::cloud::Platform& platform) {
  const Trace::Scope rows_span(layers.trace, spans.replica_evaluate);
  sched::Strategy strategy;
  cloudwf::dag::Workflow structure;
  {
    const Trace::Scope s(layers.trace, layers.resolve);
    bool found = false;
    for (sched::Strategy& b : sched::baseline_strategies())
      if (b.label == req.strategy) {
        strategy = std::move(b);
        found = true;
        break;
      }
    if (!found) strategy = sched::strategy_by_label(req.strategy);
    structure = svc::workflow_by_name(req.workflow);
  }
  std::vector<svc::ResultRow> rows;
  for (std::uint64_t seed = req.seed_begin; seed <= req.seed_end; ++seed) {
    const Prepared p =
        replica_prepare(layers, platform, structure, req.scenario, seed);
    rows.push_back(
        {seed, replica_cell(layers, strategy, p, structure.name(), req.scenario)});
  }
  return rows;
}

/// svc::rank_rows, call by call.
std::vector<svc::ResultRow> replica_rank_rows(
    const Layers& layers, const Spans& spans, const svc::RankRequest& req,
    const cloudwf::cloud::Platform& platform) {
  const Trace::Scope rows_span(layers.trace, spans.replica_rank);
  cloudwf::dag::Workflow structure;
  std::vector<sched::Strategy> strategies;
  {
    const Trace::Scope s(layers.trace, layers.resolve);
    structure = svc::workflow_by_name(req.workflow);
    strategies = sched::paper_strategies();
  }
  const Prepared p =
      replica_prepare(layers, platform, structure, req.scenario, req.seed);
  std::vector<svc::ResultRow> rows;
  for (const sched::Strategy& strategy : strategies)
    rows.push_back({req.seed, replica_cell(layers, strategy, p,
                                           structure.name(), req.scenario)});
  return rows;
}

/// The response body, as evaluate_body / rank_body and their binary twins
/// build it from the rows.
std::string replica_encode(const SvcRequest& r,
                           const std::vector<svc::ResultRow>& rows) {
  if (r.binary) {
    if (r.rank) {
      svc::BinRankResponse resp;
      resp.workflow = r.rank_request.workflow;
      resp.scenario = r.rank_request.scenario;
      resp.seed = r.rank_request.seed;
      for (const svc::ResultRow& row : rows)
        resp.rows.push_back(svc::bin_row(row.result, row.seed));
      return svc::encode_frame(std::move(resp));
    }
    svc::BinEvaluateResponse resp;
    resp.workflow = r.evaluate.workflow;
    resp.scenario = r.evaluate.scenario;
    resp.strategy = r.evaluate.strategy;
    for (const svc::ResultRow& row : rows)
      resp.rows.push_back(svc::bin_row(row.result, row.seed));
    return svc::encode_frame(std::move(resp));
  }
  Json results = Json::array();
  for (const svc::ResultRow& row : rows)
    results.push_back(svc::run_result_json(row.result, row.seed));
  Json body = Json::object();
  if (r.rank) {
    body["endpoint"] = "rank";
    body["workflow"] = r.rank_request.workflow;
    body["scenario"] = std::string(wl::name_of(r.rank_request.scenario));
    body["seed"] = static_cast<std::int64_t>(r.rank_request.seed);
  } else {
    body["endpoint"] = "evaluate";
    body["workflow"] = r.evaluate.workflow;
    body["strategy"] = r.evaluate.strategy;
    body["scenario"] = std::string(wl::name_of(r.evaluate.scenario));
  }
  body["results"] = std::move(results);
  return body.dump();
}

bool same_rows(const std::vector<svc::ResultRow>& a,
               const std::vector<svc::ResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(svc::bin_row(a[i].result, a[i].seed) ==
          svc::bin_row(b[i].result, b[i].seed)) ||
        svc::run_result_json(a[i].result, a[i].seed).dump() !=
            svc::run_result_json(b[i].result, b[i].seed).dump())
      return false;
  return true;
}

struct ReplayTotals {
  double roundtrip_ms = 0;
  double frontend_ms = 0;
  std::uint64_t requests = 0;
  double replica_rows_ms = 0;  ///< replica of the production call
  double prod_rows_ms = 0;     ///< the production call itself
};

/// Replays open-loop requests one at a time on one connection to a fresh
/// server and splits each into layers. Returns the totals the coverage and
/// overhead ratios need.
ReplayTotals replay(const Traffic& traffic, double budget_s,
                    std::uint64_t max_requests, Trace& trace, Report& report) {
  const Layers layers(trace);
  const Spans n(trace);
  const cloudwf::cloud::Platform platform = cloudwf::cloud::Platform::ec2();
  svc::Server server(server_config());
  server.start();
  register_tenants(server.port());
  svc::HttpClient client = connect_client(server.port());

  // The server answers a repeated key from its response cache; the replica
  // mirrors that with its own map of the bodies it produced.
  std::unordered_map<std::string, std::string> cached;
  ReplayTotals totals;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < max_requests; ++i) {
    if (ms_between(start, Clock::now()) >= budget_s * 1000.0) break;
    const SvcRequest r = traffic.at(kOpenBase + i);
    const std::string& wire = traffic.wire(kOpenBase + i);
    const std::string request_body = body_of(r);
    std::vector<std::pair<std::string, std::string>> headers;
    if (!r.tenant.empty()) headers.emplace_back("X-Tenant", r.tenant);
    ++report.attempted;

    const Clock::time_point sent = Clock::now();
    const std::optional<svc::HttpResponse> answer =
        client.request("POST", r.rank ? "/v1/rank" : "/v1/evaluate",
                       request_body, headers, content_type(r.binary));
    const Clock::time_point received = Clock::now();
    trace.record(n.request, sent, received);
    if (!answer || answer->status != 200) {
      report.fail("replayed request " + std::to_string(i) + " failed");
      continue;
    }

    std::string body;
    std::vector<svc::ResultRow> rows;
    bool miss = false;
    svc::EvaluateRequest evaluate;
    svc::RankRequest rank;
    const Trace::Id replica = trace.open(n.replica);
    {
      svc::ParseResult parsed;
      {
        const Trace::Scope s(trace, layers.parse);
        parsed = svc::parse_http_request(wire);
      }
      if (parsed.status != svc::ParseStatus::ok)
        throw std::runtime_error("replay: request bytes do not parse");
      {
        const Trace::Scope s(trace, layers.decode);
        if (r.binary) {
          svc::BinFrame frame = svc::decode_frame(parsed.request.body);
          if (r.rank)
            rank = std::get<svc::RankRequest>(std::move(frame));
          else
            evaluate = std::get<svc::EvaluateRequest>(std::move(frame));
        } else {
          const Json json = Json::parse(parsed.request.body);
          if (r.rank)
            rank = svc::decode_rank(json);
          else
            evaluate = svc::decode_evaluate(json);
        }
      }
      {
        // The admission checks the server runs before the cache lookup.
        const Trace::Scope s(trace, layers.resolve);
        if (r.binary) svc::validate_workflow_name(r.rank ? rank.workflow
                                                         : evaluate.workflow);
        if (!r.rank) svc::validate_strategy_label(evaluate.strategy);
      }
      const std::string key = key_of(r);
      const auto hit = cached.find(key);
      miss = hit == cached.end();
      if (miss)
        rows = r.rank ? replica_rank_rows(layers, n, rank, platform)
                      : replica_evaluate_rows(layers, n, evaluate, platform);
      const Trace::Scope s(trace, layers.encode);
      if (miss) body = replica_encode(r, rows);
      svc::HttpResponse response;
      response.body = miss ? body : hit->second;
      response.content_type = content_type(r.binary);
      (void)svc::serialize_response(response);
      if (miss) cached.emplace(key, body);
      else body = hit->second;
    }
    trace.close(replica);

    const double roundtrip = ms_between(sent, received);
    const double replica_ms = trace.duration_ms(replica);
    totals.roundtrip_ms += roundtrip;
    totals.frontend_ms += std::max(0.0, roundtrip - replica_ms);
    ++totals.requests;
    if (answer->body != body)
      report.wrong("replayed request " + std::to_string(i) +
                   ": replica body differs from the server's");

    if (!miss) continue;
    const Trace::Id prod = trace.open(r.rank ? n.prod_rank : n.prod_evaluate);
    const std::vector<svc::ResultRow> prod_rows =
        r.rank ? svc::rank_rows(rank, platform)
               : svc::evaluate_rows(evaluate, platform);
    trace.close(prod);
    totals.prod_rows_ms += trace.duration_ms(prod);
    if (!same_rows(rows, prod_rows))
      report.wrong("replayed request " + std::to_string(i) +
                   ": replica rows differ from " +
                   (r.rank ? "svc::rank_rows" : "svc::evaluate_rows"));
  }
  totals.replica_rows_ms = trace.total_ms("replica:svc.evaluate_rows") +
                           trace.total_ms("replica:svc.rank_rows");
  server.stop();
  return totals;
}

}  // namespace

Report run_svc(const Options& options) {
  Report report;
  const Traffic traffic(options.seed);
  const double seconds = static_cast<double>(options.seconds);

  // Set-up is repeated; the last rig is the one measured.
  std::vector<double> setup_s;
  Rig rig;
  for (int s = 0; s < (options.trace ? 1 : kSetups); ++s) {
    rig = Rig{};  // the previous server drains and stops first
    const Clock::time_point t0 = Clock::now();
    rig = set_up(traffic);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  const std::uint16_t port = rig.server->port();

  const StatsSnapshot before = read_stats(port);
  const auto rounds = static_cast<std::size_t>(
      std::max(1.0, std::floor(seconds / kRoundS)));
  std::unordered_map<std::string, std::string> expected;
  ClosedTally closed;
  std::vector<LoadRun> trials;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t base = kClosedBase + r * kTrialStride;
    const LoadRun run = rig.gen->closed(traffic.source(base, r < kCheckedRounds),
                                        kClosedRoundS, ~std::uint64_t{0});
    // Checked here, between the measured phases, so the round can be
    // dropped.
    check_answers(traffic, base, run, report, expected);
    closed.add(run);
    for (std::size_t k = 0; k < kTrialsPerRound; ++k) {
      const std::size_t t = trials.size();
      trials.push_back(rig.gen->open(
          traffic.source(kOpenBase + t * kTrialStride, t < kCheckedTrials),
          kOpenRate, kOpenTrialS));
    }
  }
  const StatsSnapshot after = read_stats(port);
  const LoadRun warmup = std::move(rig.warmup);
  rig = Rig{};

  // Checks, outside the measured windows.
  check_answers(traffic, kWarmBase, warmup, report, expected);
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  for (std::size_t t = 0; t < trials.size(); ++t) {
    check_answers(traffic, kOpenBase + t * kTrialStride, trials[t], report,
                  expected);
    latency_ms.insert(latency_ms.end(), trials[t].latency_ms.begin(),
                      trials[t].latency_ms.end());
    lag_ms.insert(lag_ms.end(), trials[t].lag_ms.begin(),
                  trials[t].lag_ms.end());
  }

  const double misses = after.misses - before.misses;
  const double lookups = misses + (after.hits - before.hits);
  if (!options.trace) {
    report.add("throughput_rps", closed.rate(), "req/s");
    report.add("cells_per_s", closed.rate() * closed.cells_per_answer(),
               "cells/s");
    report.add("latency_p50_ms", percentile(latency_ms, 50.0), "ms");
    report.add("latency_tail_ms", trial_tail(trials), "ms");
    report.add("setup_s", percentile(setup_s, 50.0), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  Trace trace;
  const ReplayTotals totals =
      replay(traffic, seconds * 0.3,
             std::min<std::uint64_t>(trials[0].answers.size(), kMaxReplayed), trace,
             report);
  PerLayer p;
  p.layers = trace.self_times();
  p.layers["svc.frontend"] = {totals.frontend_ms, totals.requests};
  p.hit_ratio = lookups > 0 ? (after.hits - before.hits) / lookups : 0;
  p.batches = after.batches - before.batches;
  p.coalesced_ratio =
      misses > 0 ? (after.coalesced - before.coalesced) / misses : 0;
  p.queue_peak = after.queue_peak;
  p.refused = after.refused - before.refused;
  p.lag_p99_ms = percentile(lag_ms, 99.0);
  p.traced_ms = totals.roundtrip_ms;
  p.replica_ms = totals.replica_rows_ms;
  p.prod_ms = totals.prod_rows_ms;
  add_per_layer(report, p);
  if (!options.trace_file.empty() && !trace.write_jsonl(options.trace_file))
    report.wrong("cannot write the trace to " + options.trace_file);
  return report;
}

}  // namespace perfbench
