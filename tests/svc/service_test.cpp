// End-to-end service tests over real loopback sockets: routing, error
// mapping, stats, backpressure under overload, and the certification this
// PR hangs on — concurrent service responses are byte-identical to the
// serial handler answers for the same (strategy, workflow, seed) triples.
#include "svc/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scheduling/factory.hpp"
#include "svc/binproto.hpp"
#include "svc/handlers.hpp"
#include "svc/http.hpp"
#include "util/json.hpp"

namespace cloudwf::svc {
namespace {

using util::Json;

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig config;
    config.port = 0;  // ephemeral: tests never collide on a fixed port
    config.workers = 3;
    config.max_queue = 64;
    server_ = std::make_unique<Server>(config);
    server_->start();
    ASSERT_TRUE(client_.connect("127.0.0.1", server_->port()));
  }
  void TearDown() override {
    client_.disconnect();
    if (server_) server_->stop();
  }

  std::optional<HttpResponse> get(const std::string& target) {
    return client_.request("GET", target);
  }
  std::optional<HttpResponse> post(const std::string& target,
                                   const std::string& body) {
    return client_.request("POST", target, body);
  }

  std::unique_ptr<Server> server_;
  HttpClient client_;
};

TEST_F(ServiceTest, HealthReportsCapacity) {
  const auto response = get("/health");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  const Json body = Json::parse(response->body);
  EXPECT_EQ(body.as_object().at("status").as_string(), "ok");
  EXPECT_EQ(body.as_object().at("workers").as_number(), 3.0);
  EXPECT_EQ(body.as_object().at("max_queue").as_number(), 64.0);
}

TEST_F(ServiceTest, RoutingErrors) {
  auto response = get("/no-such-endpoint");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 404);

  response = post("/health", "{}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 405);

  response = client_.request("GET", "/v1/evaluate");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 405);
}

/// Sends `wire` on a fresh raw connection, half-closes the write side and
/// returns every byte the server wrote before closing its end (at most 5 s
/// of waiting per read, so a missing answer fails instead of hanging).
std::string send_and_half_close(std::uint16_t port, const std::string& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string answer;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      write_all(fd, wire) && ::shutdown(fd, SHUT_WR) == 0) {
    pollfd ready{fd, POLLIN, 0};
    char chunk[4096];
    while (::poll(&ready, 1, 5000) == 1) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      answer.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return answer;
}

TEST_F(ServiceTest, PeerCloseMidBodyIsMalformed) {
  const std::string answer = send_and_half_close(
      server_->port(),
      "POST /v1/evaluate HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf");
  EXPECT_EQ(answer.rfind("HTTP/1.1 400 ", 0), 0u) << answer;
  EXPECT_NE(answer.find("connection closed mid-body"), std::string::npos)
      << answer;
}

TEST_F(ServiceTest, PeerCloseMidRequestIsMalformed) {
  const std::string answer = send_and_half_close(
      server_->port(),
      "POST /v1/evaluate HTTP/1.1\r\nContent-Length: 10\r\n");
  EXPECT_EQ(answer.rfind("HTTP/1.1 400 ", 0), 0u) << answer;
  EXPECT_NE(answer.find("connection closed mid-request"), std::string::npos)
      << answer;
}

TEST_F(ServiceTest, MalformedJsonAnswers400WithByteOffset) {
  const auto response = post("/v1/evaluate", R"({"workflow": montage})");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);
  const Json body = Json::parse(response->body);
  const std::string message = body.as_object().at("error").as_string();
  EXPECT_NE(message.find("JSON parse error at byte"), std::string::npos)
      << message;
}

TEST_F(ServiceTest, SchemaViolationsAnswer400) {
  const char* bodies[] = {
      R"({"workflow":"nope","strategy":"GAIN","seed":1})",
      R"({"workflow":"montage","strategy":"NotAStrategy","seed":1})",
      R"({"workflow":"montage","strategy":"GAIN","seeds":[0,9999]})",
  };
  for (const char* body : bodies) {
    const auto response = post("/v1/evaluate", body);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400) << body << " -> " << response->body;
  }
}

TEST_F(ServiceTest, StatsExposeCountersAndPhases) {
  ASSERT_TRUE(post("/v1/evaluate",
                   R"({"workflow":"montage","strategy":"GAIN","seed":0})")
                  .has_value());
  const auto response = get("/stats");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  const Json body = Json::parse(response->body);
  const auto& service = body.as_object().at("service").as_object();
  EXPECT_GE(service.at("requests_evaluate").as_number(), 1.0);
  EXPECT_GE(service.at("responses_ok").as_number(), 1.0);
  EXPECT_GE(service.at("batches_run").as_number(), 1.0);
  // Per-request obs phases surface on /stats: the evaluate span must exist.
  const auto& phases = body.as_object().at("phases").as_object();
  EXPECT_TRUE(phases.count("svc: evaluate")) << response->body;
}

// The acceptance criterion: responses computed concurrently through the
// batching/caching service path are byte-identical to the serial handler
// answers (which are what `cloudwf run` prints for the same cell).
TEST_F(ServiceTest, ConcurrentResponsesMatchSerialAnswersByteForByte) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const std::vector<std::string> strategies = {"AllParExceed-m", "CPA-Eager",
                                               "GAIN"};
  const std::vector<std::uint64_t> seeds = {0, 1, 7};

  struct Case {
    std::string target;
    std::string request_body;
    std::string expected_body;
  };
  std::vector<Case> cases;
  for (const std::string& strategy : strategies) {
    for (const std::uint64_t seed : seeds) {
      EvaluateRequest request;
      request.workflow = "montage";
      request.strategy = strategy;
      request.seed_begin = request.seed_end = seed;
      cases.push_back({"/v1/evaluate",
                       R"({"workflow":"montage","strategy":")" + strategy +
                           R"(","seed":)" + std::to_string(seed) + "}",
                       evaluate_body(request, platform)});
    }
  }
  {
    RankRequest request;
    request.workflow = "mapreduce";
    request.seed = 3;
    cases.push_back({"/v1/rank",
                     R"({"workflow":"mapreduce","seed":3})",
                     rank_body(request, platform)});
  }

  // Every case fired twice from each of 4 threads, all in flight together,
  // so batching, coalescing and the per-batch cache all engage.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client;
      if (!client.connect("127.0.0.1", server_->port())) {
        ++mismatches;
        return;
      }
      for (int repeat = 0; repeat < 2; ++repeat) {
        for (std::size_t c = 0; c < cases.size(); ++c) {
          // Stagger starting offsets per thread so threads collide on
          // different cases at the same moment.
          const Case& item = cases[(c + static_cast<std::size_t>(t)) %
                                   cases.size()];
          const auto response =
              client.request("POST", item.target, item.request_body);
          if (!response || response->status != 200 ||
              response->body != item.expected_body)
            ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(server_->counters().responses_ok.load(), 0u);
}

TEST(SharedStrategies, RegistryInstancesAnswerIdenticallyAcrossThreads) {
  // Service workers share the registry's scheduler instances, baselines
  // included; concurrent evaluations must match the serial answers.
  const cloud::Platform platform = cloud::Platform::ec2();
  std::vector<EvaluateRequest> requests;
  std::vector<std::string> expected;
  for (const scheduling::StrategyEntry& e : scheduling::strategy_registry()) {
    if (e.family != scheduling::StrategyFamily::baseline &&
        e.strategy.label != "GAIN" && e.strategy.label != "AllParExceed-m")
      continue;
    EvaluateRequest request;
    request.workflow = "cstem";
    request.strategy = e.strategy.label;
    request.seed_begin = request.seed_end = 2;
    expected.push_back(evaluate_body(request, platform));
    requests.push_back(std::move(request));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::size_t c = (i + t * 5) % requests.size();
        if (evaluate_body(requests[c], platform) != expected[c]) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ServiceTest, StatsExposeEventLoopsAndResponseCache) {
  ASSERT_TRUE(get("/health").has_value());
  const auto response = get("/stats");
  ASSERT_TRUE(response.has_value());
  const Json body = Json::parse(response->body);
  const auto& loops = body.as_object().at("event_loops").as_array();
  ASSERT_EQ(loops.size(), server_->event_loop_count());
  ASSERT_FALSE(loops.empty());
  // This client's connection is open and has served at least one request.
  double open = 0, accepted = 0, wakeups = 0;
  for (const Json& loop : loops) {
    const auto& obj = loop.as_object();
    open += obj.at("connections_open").as_number();
    accepted += obj.at("connections_accepted").as_number();
    wakeups += obj.at("epoll_wakeups").as_number();
  }
  EXPECT_GE(open, 1.0);
  EXPECT_GE(accepted, 1.0);
  EXPECT_GE(wakeups, 1.0);
  const auto& cache = body.as_object().at("cache").as_object();
  EXPECT_GT(cache.at("capacity").as_number(), 0.0);
}

// The binary protocol's acceptance criterion mirrors the JSON one: answers
// computed concurrently through the service are byte-identical to the
// direct binary handler bodies, and errors come back as decodable frames.
TEST_F(ServiceTest, ConcurrentBinaryResponsesMatchHandlerBytes) {
  const cloud::Platform platform = cloud::Platform::ec2();
  struct Case {
    std::string target;
    std::string request_frame;
    std::string expected_body;
  };
  std::vector<Case> cases;
  for (const std::uint64_t seed : {0, 1, 7}) {
    EvaluateRequest request;
    request.workflow = "montage";
    request.strategy = "AllParExceed-m";
    request.seed_begin = request.seed_end = seed;
    cases.push_back({"/v1/evaluate", encode_frame(request),
                     evaluate_body_bin(request, platform)});
  }
  {
    RankRequest request;
    request.workflow = "mapreduce";
    request.seed = 3;
    cases.push_back({"/v1/rank", encode_frame(request),
                     rank_body_bin(request, platform)});
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client;
      if (!client.connect("127.0.0.1", server_->port())) {
        ++mismatches;
        return;
      }
      for (int repeat = 0; repeat < 2; ++repeat) {
        for (std::size_t c = 0; c < cases.size(); ++c) {
          const Case& item = cases[(c + static_cast<std::size_t>(t)) %
                                   cases.size()];
          const auto response =
              client.request("POST", item.target, item.request_frame, {},
                             kBinaryContentType);
          if (!response || response->status != 200 ||
              response->content_type != kBinaryContentType ||
              response->body != item.expected_body)
            ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ServiceTest, BinaryErrorsAreDecodableFrames) {
  EvaluateRequest bad;
  bad.workflow = "no-such-dag";
  bad.strategy = "GAIN";
  const auto response = client_.request("POST", "/v1/evaluate",
                                        encode_frame(bad), {},
                                        kBinaryContentType);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);
  const BinFrame frame = decode_frame(response->body);
  const auto* err = std::get_if<BinError>(&frame);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->status, 400);
  EXPECT_NE(err->message.find("unknown workflow"), std::string::npos)
      << err->message;

  // A malformed frame reports its byte offset, still as a binary frame.
  const auto garbage = client_.request("POST", "/v1/evaluate", "\x01\x02",
                                       {}, kBinaryContentType);
  ASSERT_TRUE(garbage.has_value());
  EXPECT_EQ(garbage->status, 400);
  const BinFrame gframe = decode_frame(garbage->body);
  const auto* gerr = std::get_if<BinError>(&gframe);
  ASSERT_NE(gerr, nullptr);
  EXPECT_NE(gerr->message.find("binary frame error"), std::string::npos)
      << gerr->message;
}

TEST(ServiceConfig, MultipleEventLoopsShareTheListener) {
  ServerConfig config;
  config.port = 0;
  config.workers = 2;
  config.event_loop_threads = 3;
  Server server(config);
  server.start();
  EXPECT_EQ(server.event_loop_count(), 3u);

  // Enough concurrent connections that EPOLLEXCLUSIVE spreads accepts; every
  // one must be served regardless of which loop owns it.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 12; ++t) {
    threads.emplace_back([&] {
      HttpClient client;
      if (!client.connect("127.0.0.1", server.port())) {
        ++failures;
        return;
      }
      for (int i = 0; i < 5; ++i) {
        const auto response = client.request("GET", "/health");
        if (!response || response->status != 200) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.stop();
}

TEST(ServiceOverload, OverCapacityLoadIsRejectedNotQueued) {
  ServerConfig config;
  config.port = 0;
  config.workers = 1;
  config.max_queue = 2;  // tiny on purpose: force the 429 path
  Server server(config);
  server.start();

  constexpr int kClients = 24;
  std::atomic<int> ok{0}, rejected{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client;
      if (!client.connect("127.0.0.1", server.port())) {
        ++other;
        return;
      }
      // rank = 19 strategy evaluations, so the single worker stays busy
      // long enough for the queue bound to bite. A distinct seed per client
      // keeps the response cache from answering before the bound does.
      const auto response = client.request(
          "POST", "/v1/rank",
          R"({"workflow":"cybershake","seed":)" + std::to_string(t) + "}");
      if (!response) ++other;
      else if (response->status == 200) ++ok;
      else if (response->status == 429) ++rejected;
      else ++other;
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load() + rejected.load(), kClients);
  EXPECT_GT(rejected.load(), 0);  // backpressure engaged
  EXPECT_GT(ok.load(), 0);        // but admitted work still completed
  EXPECT_EQ(server.counters().rejected_429.load(),
            static_cast<std::uint64_t>(rejected.load()));
  server.stop();
}

TEST(ServiceLifecycle, StopDrainsAndRefusesNewConnections) {
  ServerConfig config;
  config.port = 0;
  config.workers = 2;
  Server server(config);
  server.start();
  const std::uint16_t port = server.port();

  HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port));
  const auto response = client.request(
      "POST", "/v1/evaluate",
      R"({"workflow":"sequential","strategy":"AllParExceed-m","seed":0})");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);

  server.stop();
  EXPECT_FALSE(server.running());
  // Idempotent, and the port is gone.
  server.stop();
  HttpClient late;
  EXPECT_FALSE(late.connect("127.0.0.1", port));
}

}  // namespace
}  // namespace cloudwf::svc
