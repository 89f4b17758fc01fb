// ShardTracker unit tests: lease lifecycle, expiry re-issue, straggler
// speculation, first-completion-wins and dead-sweep detection — the
// bookkeeping that lets the fabric survive lost workers without ever
// merging a wrong or duplicate answer.
#include "dist/tracker.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/sweep_grid.hpp"

namespace cloudwf::dist {
namespace {

/// N single-cell shards over a throwaway grid — the tracker never looks
/// inside a spec, only at ids, so the grid contents are irrelevant here.
std::vector<exp::ShardSpec> make_shards(std::size_t count) {
  exp::SweepGridSpec grid;
  grid.workflows = {"montage"};
  grid.scenarios = {workload::ScenarioKind::pareto};
  grid.strategies = {"AllPar1LnS"};
  grid.seed_begin = 0;
  grid.seed_end = count - 1;
  std::vector<exp::ShardSpec> shards;
  for (std::size_t i = 0; i < count; ++i) {
    exp::ShardSpec shard;
    shard.shard_id = i;
    shard.cell_begin = i;
    shard.cell_end = i + 1;
    shard.grid = grid;
    shards.push_back(shard);
  }
  return shards;
}

exp::SweepRow marker_row(std::uint64_t id) {
  exp::SweepRow row;
  row.seed = id;
  row.strategy = "AllPar1LnS";
  row.makespan_us = static_cast<std::int64_t>(id) * 1000;
  return row;
}

TEST(ShardTracker, GrantsPendingShardsInOrderThenWaits) {
  // The default 30 s lease window: half of it (when speculation may start)
  // is far beyond this test.
  ShardTracker tracker(make_shards(3));

  for (std::uint64_t i = 0; i < 3; ++i) {
    const Acquired got = tracker.acquire();
    ASSERT_EQ(got.status, AcquireStatus::granted);
    EXPECT_EQ(got.shard.shard_id, i);
  }
  // Everything leased and live: nothing to hand out, sweep still running.
  EXPECT_EQ(tracker.acquire().status, AcquireStatus::wait);
  EXPECT_FALSE(tracker.all_done());
  EXPECT_FALSE(tracker.dead());
}

TEST(ShardTracker, CompleteIsFirstCompletionWins) {
  ShardTracker tracker(make_shards(2));
  (void)tracker.acquire();
  (void)tracker.acquire();

  EXPECT_TRUE(tracker.complete(0, {marker_row(10)}));
  EXPECT_FALSE(tracker.complete(0, {marker_row(99)}));  // duplicate: dropped
  EXPECT_FALSE(tracker.complete(7, {}));                // unknown id
  EXPECT_TRUE(tracker.complete(1, {marker_row(11)}));
  EXPECT_TRUE(tracker.all_done());
  EXPECT_EQ(tracker.acquire().status, AcquireStatus::done);

  const auto results = tracker.results();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0][0].seed, 10u);  // the first answer, not the loser
  EXPECT_EQ(results[1][0].seed, 11u);

  const TrackerStats stats = tracker.stats();
  EXPECT_EQ(stats.completions, 2u);
  EXPECT_EQ(stats.duplicates_discarded, 1u);
}

TEST(ShardTracker, ResultsThrowBeforeAllDone) {
  ShardTracker tracker(make_shards(2));
  (void)tracker.acquire();
  EXPECT_TRUE(tracker.complete(0, {marker_row(1)}));
  EXPECT_THROW((void)tracker.results(), std::logic_error);
}

TEST(ShardTracker, ExpiredLeaseIsReissued) {
  TrackerConfig config;
  config.lease_timeout = std::chrono::milliseconds(30);
  ShardTracker tracker(make_shards(1), config);

  ASSERT_EQ(tracker.acquire().status, AcquireStatus::granted);
  // A killed worker never reports; its lease simply times out. An expired
  // lease is re-issued as such, ahead of any speculation.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const Acquired again = tracker.acquire();
  ASSERT_EQ(again.status, AcquireStatus::granted);
  EXPECT_EQ(again.shard.shard_id, 0u);
  EXPECT_EQ(tracker.stats().reissues_expired, 1u);
}

TEST(ShardTracker, StragglerIsSpeculativelyDoubleRun) {
  TrackerConfig config;
  config.lease_timeout = std::chrono::milliseconds(400);
  ShardTracker tracker(make_shards(1), config);

  ASSERT_EQ(tracker.acquire().status, AcquireStatus::granted);
  // Inside the first half of the window: too early to speculate.
  EXPECT_EQ(tracker.acquire().status, AcquireStatus::wait);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const Acquired copy = tracker.acquire();
  ASSERT_EQ(copy.status, AcquireStatus::granted);
  EXPECT_EQ(copy.shard.shard_id, 0u);
  EXPECT_EQ(tracker.stats().reissues_speculative, 1u);
  // At most one speculative copy: two live leases block a third grant.
  EXPECT_EQ(tracker.acquire().status, AcquireStatus::wait);

  // The straggler finishes second; its rows are discarded, the merge keeps
  // the winner's bit-identical copy.
  EXPECT_TRUE(tracker.complete(0, {marker_row(42)}));
  EXPECT_FALSE(tracker.complete(0, {marker_row(42)}));
  EXPECT_TRUE(tracker.all_done());
  EXPECT_EQ(tracker.stats().duplicates_discarded, 1u);
}

TEST(ShardTracker, ExhaustedAttemptsMarkSweepDead) {
  TrackerConfig config;
  config.lease_timeout = std::chrono::milliseconds(30);
  config.max_attempts = 2;
  ShardTracker tracker(make_shards(1), config);

  // Both attempts are granted and both workers are lost: each lease runs
  // out, and no attempt is left to re-issue the shard.
  for (int attempt = 0; attempt < 2; ++attempt) {
    ASSERT_EQ(tracker.acquire().status, AcquireStatus::granted);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  EXPECT_EQ(tracker.acquire().status, AcquireStatus::done);
  EXPECT_TRUE(tracker.dead());
  EXPECT_FALSE(tracker.all_done());
  EXPECT_EQ(tracker.stats().reissues_expired, 1u);
  tracker.wait_finished();  // returns immediately on a dead sweep
}

TEST(ShardTracker, RejectsDegenerateConfigs) {
  EXPECT_THROW(ShardTracker({}, {}), std::invalid_argument);
  TrackerConfig config;
  config.max_attempts = 0;
  EXPECT_THROW(ShardTracker(make_shards(1), config), std::invalid_argument);
}

TEST(ShardTracker, WaitFinishedWakesOnCompletion) {
  ShardTracker tracker(make_shards(1));
  ASSERT_EQ(tracker.acquire().status, AcquireStatus::granted);

  std::thread finisher([&tracker] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(tracker.complete(0, {marker_row(1)}));
  });
  // Blocks while the lease is out, then returns once the row lands.
  tracker.wait_finished();
  EXPECT_TRUE(tracker.all_done());
  EXPECT_EQ(tracker.acquire().status, AcquireStatus::done);
  finisher.join();
}

}  // namespace
}  // namespace cloudwf::dist
