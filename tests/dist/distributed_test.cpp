// End-to-end fabric tests: a CoordinatorServer driven by real run_worker
// loops over loopback sockets — healthy, straggling, leaving mid-sweep or
// killed mid-shard — and in every case the certification the subsystem
// exists for: the merged rows are bit-identical to the serial sweep.
#include "dist/coordinator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cloud/platform.hpp"
#include "dist/worker.hpp"
#include "exp/sweep_grid.hpp"
#include "scheduling/factory.hpp"
#include "svc/binproto.hpp"
#include "svc/http.hpp"
#include "svc/protocol.hpp"
#include "util/json.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::dist {
namespace {

using namespace std::chrono_literals;

exp::SweepGridSpec test_grid() {
  exp::SweepGridSpec grid;
  grid.workflows = {"montage", "cstem"};
  grid.scenarios = {workload::ScenarioKind::pareto,
                    workload::ScenarioKind::worst_case};
  grid.strategies = {"AllPar1LnS", "StartParExceed-m"};
  grid.seed_begin = 0;
  grid.seed_end = 1;
  return grid;  // 16 cells
}

/// The coordinator's shards and a port, started; `config` tunes the tracker.
std::unique_ptr<CoordinatorServer> start_coordinator(
    std::size_t shards, CoordinatorServer::Config config = {}) {
  auto coordinator =
      std::make_unique<CoordinatorServer>(test_grid(), shards, config);
  coordinator->start();
  return coordinator;
}

WorkerOptions worker_for(const CoordinatorServer& coordinator) {
  WorkerOptions options;
  options.port = coordinator.port();
  options.poll_interval = 10ms;
  return options;
}

/// Leases `count` shards over the wire and vanishes without reporting — a
/// worker SIGKILLed mid-shard. Its leases can only expire.
void lease_and_vanish(const CoordinatorServer& coordinator, int count) {
  svc::HttpClient victim;
  ASSERT_TRUE(victim.connect("127.0.0.1", coordinator.port()));
  for (int i = 0; i < count; ++i) {
    const auto lease = victim.request("POST", "/v1/shard/lease");
    ASSERT_TRUE(lease.has_value());
    ASSERT_EQ(lease->status, 200);
  }
  victim.disconnect();
}

TEST(PullMode, WorkersOverLoopbackMatchSerialBitwise) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const std::vector<exp::SweepRow> serial =
      exp::run_grid_serial(test_grid(), platform);
  const auto coordinator = start_coordinator(4);

  WorkerReport reports[2];
  std::thread workers[2];
  for (std::size_t i = 0; i < 2; ++i)
    workers[i] = std::thread([&, i] {
      reports[i] = run_worker(worker_for(*coordinator), platform);
    });
  const SweepOutcome outcome = coordinator->finish();
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(outcome.rows, serial);
  EXPECT_EQ(outcome.shard_count, 4u);
  EXPECT_EQ(reports[0].shards_completed + reports[1].shards_completed, 4u);
  EXPECT_TRUE(reports[0].finished);
  EXPECT_TRUE(reports[1].finished);
}

TEST(PullMode, SingleWorkerMatchesSerialBitwise) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const auto coordinator = start_coordinator(5);
  WorkerReport report;
  std::thread worker(
      [&] { report = run_worker(worker_for(*coordinator), platform); });
  const SweepOutcome outcome = coordinator->finish();
  worker.join();

  EXPECT_EQ(outcome.rows, exp::run_grid_serial(test_grid(), platform));
  EXPECT_EQ(report.shards_completed, 5u);
  EXPECT_TRUE(report.finished);
  EXPECT_TRUE(report.failure.empty());
}

TEST(PullMode, SurvivesWorkerKilledMidShardAndStraggler) {
  const cloud::Platform platform = cloud::Platform::ec2();
  CoordinatorServer::Config config;
  config.tracker.lease_timeout = 250ms;
  const auto coordinator = start_coordinator(4, config);

  // The "killed" worker leases a shard and vanishes; its lease must expire
  // and the shard be re-issued to the survivors.
  lease_and_vanish(*coordinator, 1);

  // One straggler (sleeps before reporting each shard — its answers may
  // lose the race and be discarded as duplicates) and one healthy worker.
  WorkerOptions straggler_options = worker_for(*coordinator);
  straggler_options.delay_per_shard = 300ms;
  WorkerReport straggler_report, healthy_report;
  std::thread straggler([&] {
    straggler_report = run_worker(straggler_options, platform);
  });
  std::thread healthy([&] {
    healthy_report = run_worker(worker_for(*coordinator), platform);
  });
  const SweepOutcome outcome = coordinator->finish();
  straggler.join();
  healthy.join();

  // Byte-identical despite the orphaned lease and the duplicate answers.
  EXPECT_EQ(outcome.rows, exp::run_grid_serial(test_grid(), platform));
  EXPECT_EQ(outcome.stats.completions, 4u);
  // The victim's shard came back: at least one re-issue (expired lease) or
  // speculative copy happened.
  EXPECT_GE(outcome.stats.reissues_expired +
                outcome.stats.reissues_speculative,
            1u);
  // Accepted + duplicate reports cover all four shards at least once.
  EXPECT_GE(straggler_report.shards_completed +
                straggler_report.shards_duplicate +
                healthy_report.shards_completed +
                healthy_report.shards_duplicate,
            4u);
}

TEST(PullMode, ReissuesShardsThatLostWorkersLeave) {
  const cloud::Platform platform = cloud::Platform::ec2();
  CoordinatorServer::Config config;
  config.tracker.lease_timeout = 200ms;
  config.tracker.max_attempts = 8;  // headroom: every loss burns an attempt
  const auto coordinator = start_coordinator(8, config);

  // Three shards are leased by a worker that dies holding them; a second
  // worker leaves after one shard (--max-shards 1). The last one standing
  // must end up with every orphaned shard, re-issued.
  lease_and_vanish(*coordinator, 3);
  WorkerOptions quitter_options = worker_for(*coordinator);
  quitter_options.max_shards = 1;
  WorkerReport quitter_report, healthy_report;
  std::thread quitter(
      [&] { quitter_report = run_worker(quitter_options, platform); });
  std::thread healthy([&] {
    healthy_report = run_worker(worker_for(*coordinator), platform);
  });
  const SweepOutcome outcome = coordinator->finish();
  quitter.join();
  healthy.join();

  EXPECT_EQ(outcome.rows, exp::run_grid_serial(test_grid(), platform));
  EXPECT_EQ(outcome.stats.completions, 8u);
  EXPECT_GE(outcome.stats.reissues_expired +
                outcome.stats.reissues_speculative,
            3u);
  EXPECT_GE(outcome.stats.leases_granted, 11u);  // 8 completed + 3 lost
  EXPECT_LE(quitter_report.shards_completed, 1u);
  EXPECT_TRUE(healthy_report.finished);
}

TEST(PullMode, SpeculatesAroundAStragglerAndDiscardsTheLoser) {
  const cloud::Platform platform = cloud::Platform::ec2();
  CoordinatorServer::Config config;
  config.tracker.lease_timeout = 300ms;
  const auto coordinator = start_coordinator(2, config);

  // The straggler holds each lease 400 ms, past the 300 ms window, so the
  // fast worker gets a copy (speculative after 150 ms, or expiry-driven
  // after 300 ms) and wins. The straggler's late answer must be discarded
  // — and because both answers are bit-identical, either winner merges to
  // the serial rows.
  WorkerOptions straggler_options = worker_for(*coordinator);
  straggler_options.delay_per_shard = 400ms;
  WorkerReport straggler_report, fast_report;
  std::thread straggler([&] {
    straggler_report = run_worker(straggler_options, platform);
  });
  // Hold the fast worker back until the straggler owns a lease; otherwise
  // it could finish both shards first and nothing would be speculated.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (coordinator->tracker().stats().leases_granted == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  std::thread fast(
      [&] { fast_report = run_worker(worker_for(*coordinator), platform); });
  const SweepOutcome outcome = coordinator->finish();
  straggler.join();
  fast.join();

  EXPECT_EQ(outcome.rows, exp::run_grid_serial(test_grid(), platform));
  EXPECT_EQ(outcome.stats.completions, 2u);
  EXPECT_GE(outcome.stats.reissues_speculative +
                outcome.stats.reissues_expired,
            1u);
  EXPECT_GE(outcome.stats.duplicates_discarded, 1u);
  EXPECT_GE(straggler_report.shards_duplicate, 1u);
}

TEST(PullMode, DeadSweepThrowsAndWorkersAreToldItFailed) {
  CoordinatorServer::Config config;
  config.tracker.lease_timeout = 50ms;
  config.tracker.max_attempts = 1;
  const auto coordinator = start_coordinator(2, config);

  // Every worker that ever held a shard is lost, and no attempt is left:
  // the sweep is dead. A worker still asking for leases must hear that
  // (410 plus the reason) instead of the 204 of a finished sweep.
  lease_and_vanish(*coordinator, 2);
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker(worker_for(*coordinator), cloud::Platform::ec2());
  });
  EXPECT_THROW((void)coordinator->finish(), std::runtime_error);
  worker.join();

  EXPECT_TRUE(coordinator->tracker().dead());
  EXPECT_FALSE(report.finished);
  EXPECT_EQ(report.shards_completed, 0u);
  EXPECT_EQ(report.failure.rfind("410: ", 0), 0u) << report.failure;
  EXPECT_NE(report.failure.find("exhausted its attempts"), std::string::npos)
      << report.failure;
}

TEST(PullMode, JsonResultsMergeLikeBinaryOnes) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const auto coordinator = start_coordinator(2);

  // A hand-driven worker that reports in JSON instead of binary frames.
  svc::HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", coordinator->port()));
  for (int i = 0; i < 2; ++i) {
    const auto lease = client.request("POST", "/v1/shard/lease");
    ASSERT_TRUE(lease.has_value());
    ASSERT_EQ(lease->status, 200);
    const exp::ShardSpec shard =
        svc::decode_shard(util::Json::parse(lease->body));
    util::Json rows = util::Json::array();
    for (const exp::SweepRow& row : exp::run_shard(shard, platform)) {
      util::Json out = util::Json::object();
      out["seed"] = static_cast<std::int64_t>(row.seed);
      out["strategy"] = row.strategy;
      out["makespan_us"] = row.makespan_us;
      out["vm_cost_micros"] = row.vm_cost_micros;
      out["egress_cost_micros"] = row.egress_cost_micros;
      out["total_cost_micros"] = row.total_cost_micros;
      out["idle_us"] = row.idle_us;
      out["busy_us"] = row.busy_us;
      out["vms_used"] = static_cast<std::int64_t>(row.vms_used);
      out["total_btus"] = row.total_btus;
      out["utilization_ppm"] = row.utilization_ppm;
      out["gain_pct_ppm"] = row.gain_pct_ppm;
      out["loss_pct_ppm"] = row.loss_pct_ppm;
      rows.push_back(std::move(out));
    }
    util::Json body = util::Json::object();
    body["shard_id"] = static_cast<std::int64_t>(shard.shard_id);
    body["rows"] = std::move(rows);
    const auto posted =
        client.request("POST", "/v1/shard/result", body.dump());
    ASSERT_TRUE(posted.has_value());
    ASSERT_EQ(posted->status, 200) << posted->body;
    EXPECT_EQ(util::Json::parse(posted->body).find("accepted")->as_bool(),
              true);
  }
  client.disconnect();
  EXPECT_EQ(coordinator->finish().rows,
            exp::run_grid_serial(test_grid(), platform));
}

TEST(PullMode, ShardsOfALargeGridFitTheWorkerAndBodyLimits) {
  // 68,400 montage cells asked for as one shard. The worker refuses a shard
  // over svc::kMaxCellsPerShard, and the coordinator's loop refuses a
  // result body over the HTTP limit, so the coordinator must cut more.
  exp::SweepGridSpec grid;
  grid.workflows = {"montage"};
  grid.scenarios = {workload::ScenarioKind::pareto,
                    workload::ScenarioKind::worst_case};
  grid.strategies = scheduling::paper_strategy_labels();
  grid.seed_begin = 0;
  grid.seed_end = 1799;
  ASSERT_EQ(grid.cell_count(), 68'400u);
  const CoordinatorServer coordinator(grid, 1, {});

  const std::vector<exp::ShardSpec>& shards = coordinator.tracker().shards();
  ASSERT_GT(shards.size(), 1u);
  std::uint64_t covered = 0;
  for (const exp::ShardSpec& shard : shards) {
    EXPECT_NO_THROW(svc::validate_shard(shard));
    EXPECT_EQ(shard.cell_begin, covered);
    covered = shard.cell_end;
    // The longest label on every row: the largest frame this shard's worker
    // can post back.
    exp::SweepRow row;
    for (const std::string& label : grid.strategies)
      if (label.size() > row.strategy.size()) row.strategy = label;
    svc::BinShardResponse result;
    result.shard_id = shard.shard_id;
    result.rows.assign(shard.cell_count(), row);
    EXPECT_LE(svc::encode_frame(result).size(),
              svc::HttpLimits{}.max_body_bytes);
  }
  EXPECT_EQ(covered, grid.cell_count());
}

TEST(PullMode, LeaseEndpointSpeaksTheProtocol) {
  const auto coordinator = start_coordinator(2);
  svc::HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", coordinator->port()));

  auto response = client.request("GET", "/v1/shard/lease");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 405);

  response = client.request("POST", "/v1/nope");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 404);

  response = client.request("POST", "/v1/shard/result", "not json");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);

  coordinator->stop();
}

/// Threads of this process: the entries of /proc/self/task.
std::size_t thread_count() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(PullMode, IdleConnectionsDoNotCostThreads) {
  const auto coordinator = start_coordinator(2);
  const std::size_t before = thread_count();

  // 32 keep-alive workers, each answered once and then left idle on its
  // open connection: the coordinator's one loop thread serves them all.
  std::vector<svc::HttpClient> clients(32);
  for (svc::HttpClient& client : clients) {
    ASSERT_TRUE(client.connect("127.0.0.1", coordinator->port()));
    const auto response = client.request("POST", "/v1/nope");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 404);
    EXPECT_TRUE(client.connected());
  }
  EXPECT_LE(thread_count(), before);
  coordinator->stop();
}

}  // namespace
}  // namespace cloudwf::dist
