// The shard wire representations the sweep fabric speaks (JSON and binary
// shard specs and results, and the SweepRow <-> BinResultRow pinning that
// keeps its fixed point lossless), shard admission limits, and the
// auth-token gate both servers share: `cloudwf serve` and the sweep
// coordinator check X-Auth-Token in constant time, and refuse to start on
// a non-loopback bind without a token.
#include "svc/binproto.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "cloud/platform.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "exp/sweep_grid.hpp"
#include "svc/http.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "util/json.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::svc {
namespace {

exp::ShardSpec sample_shard() {
  exp::SweepGridSpec grid;
  grid.workflows = {"montage", "cstem"};
  grid.scenarios = {workload::ScenarioKind::pareto,
                    workload::ScenarioKind::worst_case};
  grid.strategies = {"AllPar1LnS", "StartParExceed-m"};
  grid.seed_begin = 0;
  grid.seed_end = 1;
  exp::ShardSpec shard;
  shard.shard_id = 2;
  shard.cell_begin = 4;
  shard.cell_end = 12;
  shard.grid = grid;
  return shard;
}

exp::SweepRow extreme_row() {
  exp::SweepRow row;
  row.seed = std::numeric_limits<std::uint64_t>::max();
  row.strategy = "AllParExceed-m";
  row.makespan_us = std::numeric_limits<std::int64_t>::max();
  row.vm_cost_micros = std::numeric_limits<std::int64_t>::min();
  row.egress_cost_micros = -1;
  row.total_cost_micros = 7;
  row.idle_us = 88000000;
  row.busy_us = 1234000;
  row.vms_used = std::numeric_limits<std::uint32_t>::max();
  row.total_btus = 9;
  row.utilization_ppm = 137000;
  row.gain_pct_ppm = -4500000;
  row.loss_pct_ppm = 12250000;
  return row;
}

// --- fixed-point pinning -------------------------------------------------

TEST(ShardWire, SweepRowAndBinResultRowConvertLosslessly) {
  // The fabric streams exp::SweepRow as svc::BinResultRow; they are one
  // type, so merged sweeps stay bit-identical across the wire. Extremes
  // included: the frame codec must not clamp.
  static_assert(std::is_same_v<BinResultRow, exp::SweepRow>);
  const BinFrame decoded =
      decode_frame(encode_frame(BinShardResponse{1, {extreme_row()}}));
  const auto* back = std::get_if<BinShardResponse>(&decoded);
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->rows.size(), 1u);
  EXPECT_EQ(back->rows.front(), extreme_row());  // exact round trip
}

// --- binary shard frames -------------------------------------------------

TEST(ShardWire, ShardRequestFrameRoundTrips) {
  const exp::ShardSpec shard = sample_shard();
  const std::string wire = encode_frame(shard);
  const BinFrame decoded = decode_frame(wire);
  EXPECT_EQ(encode_frame(decoded), wire);  // decode -> encode fixed point
  const auto* back = std::get_if<exp::ShardSpec>(&decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(*back, shard);
}

TEST(ShardWire, ShardResponseFrameRoundTrips) {
  BinShardResponse response;
  response.shard_id = 11;
  response.rows = {extreme_row()};
  const std::string wire = encode_frame(response);
  const BinFrame decoded = decode_frame(wire);
  EXPECT_EQ(encode_frame(decoded), wire);
  const auto* back = std::get_if<BinShardResponse>(&decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(*back, response);
}

TEST(ShardWire, TruncatedShardFramesFailWithInBoundsOffsets) {
  for (const std::string& wire :
       {encode_frame(sample_shard()),
        encode_frame(BinShardResponse{3, {extreme_row()}})}) {
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      try {
        (void)decode_frame(wire.substr(0, cut));
        FAIL() << "truncation at " << cut << " of " << wire.size()
               << " decoded";
      } catch (const BinProtoError& e) {
        EXPECT_LE(e.offset, cut);
      }
    }
  }
}

TEST(ShardWire, JsonShardBodyRoundTrips) {
  const exp::ShardSpec shard = sample_shard();
  const exp::ShardSpec back =
      decode_shard(util::Json::parse(shard_request_body(shard)));
  EXPECT_EQ(back, shard);
  EXPECT_NO_THROW(validate_shard(back));
}

TEST(ShardWire, ValidateShardEnforcesGridAndCellCaps) {
  exp::ShardSpec shard = sample_shard();
  shard.cell_end = shard.grid.cell_count() + 1;
  EXPECT_THROW(validate_shard(shard), BadRequest);

  // One shard may not smuggle in an unbounded batch: seeds alone can push
  // a single slice past kMaxCellsPerShard.
  shard = sample_shard();
  shard.grid.workflows = {"montage"};
  shard.grid.scenarios = {workload::ScenarioKind::pareto};
  shard.grid.strategies = {"AllPar1LnS"};
  shard.grid.seed_begin = 0;
  shard.grid.seed_end = kMaxCellsPerShard + 10;
  shard.cell_begin = 0;
  shard.cell_end = shard.grid.cell_count();
  EXPECT_THROW(validate_shard(shard), BadRequest);
}

// --- the auth gate -------------------------------------------------------

class AuthServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig config;
    config.port = 0;
    config.workers = 2;
    config.auth_token = "sweep-fleet-secret";
    server_ = std::make_unique<Server>(config);
    server_->start();
    ASSERT_TRUE(client_.connect("127.0.0.1", server_->port()));
  }
  void TearDown() override {
    client_.disconnect();
    if (server_) server_->stop();
  }

  std::unique_ptr<Server> server_;
  HttpClient client_;
};

constexpr const char* kEvaluate =
    R"({"workflow":"montage","strategy":"AllParExceed-m","seed":7})";

TEST_F(AuthServiceTest, RequestsWithoutTokenAre401) {
  auto response = client_.request("POST", "/v1/evaluate", kEvaluate);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 401);

  // Wrong token, same-length token, and prefix token all fail alike.
  for (const std::string bad :
       {"wrong", "sweep-fleet-secreT", "sweep-fleet-secre",
        "sweep-fleet-secret2"}) {
    response = client_.request("POST", "/v1/evaluate", kEvaluate,
                               {{"X-Auth-Token", bad}});
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 401) << "token '" << bad << "' accepted";
  }
  EXPECT_GE(server_->counters().unauthorized_401.load(), 5u);
}

TEST_F(AuthServiceTest, CorrectTokenIsAccepted) {
  const auto response = client_.request(
      "POST", "/v1/evaluate", kEvaluate,
      {{"X-Auth-Token", "sweep-fleet-secret"}});
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, 200) << response->body;
  const util::Json body = util::Json::parse(response->body);
  EXPECT_EQ(body.find("results")->as_array().size(), 1u);
}

TEST_F(AuthServiceTest, HealthStaysOpenForProbes) {
  const auto response = client_.request("GET", "/health");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
}

TEST(AuthPolicy, NonLoopbackBindRequiresAToken) {
  ServerConfig config;
  config.port = 0;
  config.bind_address = "0.0.0.0";
  Server refused(config);
  EXPECT_THROW(refused.start(), std::runtime_error);

  config.auth_token = "secret";
  Server allowed(config);
  allowed.start();
  HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", allowed.port()));
  const auto response = client.request("GET", "/health");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  allowed.stop();
}

TEST(AuthPolicy, CoordinatorNonLoopbackBindRequiresAToken) {
  dist::CoordinatorServer::Config config;
  config.bind_address = "0.0.0.0";
  dist::CoordinatorServer refused(sample_shard().grid, 2, config);
  EXPECT_THROW(refused.start(), std::runtime_error);

  config.auth_token = "secret";
  dist::CoordinatorServer allowed(sample_shard().grid, 2, config);
  allowed.start();
  HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", allowed.port()));
  const auto response = client.request("POST", "/v1/shard/lease", "",
                                       {{"X-Auth-Token", "secret"}});
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  allowed.stop();
}

TEST(AuthPolicy, CoordinatorAnswers401WithoutTheToken) {
  const cloud::Platform platform = cloud::Platform::ec2();
  dist::CoordinatorServer::Config config;
  config.auth_token = "sweep-fleet-secret";
  dist::CoordinatorServer coordinator(sample_shard().grid, 2, config);
  coordinator.start();

  HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", coordinator.port()));
  auto response = client.request("POST", "/v1/shard/lease");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 401);
  for (const std::string bad : {"wrong", "sweep-fleet-secreT",
                                "sweep-fleet-secre", "sweep-fleet-secret2"}) {
    response = client.request("POST", "/v1/shard/result", "{}",
                              {{"X-Auth-Token", bad}});
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 401) << "token '" << bad << "' accepted";
  }
  client.disconnect();
  EXPECT_EQ(coordinator.tracker().stats().leases_granted, 0u);

  // A worker without the token is refused and says so; one with it runs
  // the sweep to the serial rows.
  dist::WorkerOptions options;
  options.port = coordinator.port();
  const dist::WorkerReport refused = dist::run_worker(options, platform);
  EXPECT_EQ(refused.failure.rfind("401: ", 0), 0u) << refused.failure;
  EXPECT_EQ(refused.shards_completed, 0u);

  options.auth_token = "sweep-fleet-secret";
  dist::WorkerReport report;
  std::thread worker([&] { report = dist::run_worker(options, platform); });
  const dist::SweepOutcome outcome = coordinator.finish();
  worker.join();
  EXPECT_TRUE(report.finished);
  EXPECT_EQ(outcome.rows, exp::run_grid_serial(sample_shard().grid, platform));
}

}  // namespace
}  // namespace cloudwf::svc
