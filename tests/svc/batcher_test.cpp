// Batching, admission control and deadline semantics — exercised with a
// one-worker pool whose only worker is parked on a gate, so the tests
// control exactly when batches run.
#include "svc/batcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "obs/trace.hpp"
#include "svc/handlers.hpp"
#include "util/thread_pool.hpp"

namespace cloudwf::svc {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point far_deadline() { return Clock::now() + std::chrono::minutes(5); }

QueuedRequest make_eval(std::uint64_t seed,
                        Clock::time_point deadline = far_deadline(),
                        const std::string& workflow = "montage") {
  QueuedRequest q;
  q.kind = QueuedRequest::Kind::evaluate;
  q.evaluate.workflow = workflow;
  q.evaluate.strategy = "AllParExceed-m";
  q.evaluate.seed_begin = seed;
  q.evaluate.seed_end = seed;
  q.deadline = deadline;
  return q;
}

/// Pool of one worker parked on a gate until release() — batches submitted
/// while the gate is closed pile up behind it in FIFO order.
class GatedPool {
 public:
  GatedPool() : pool_(1) {
    parked_ = pool_.submit([this] { gate_.get_future().wait(); });
  }
  ~GatedPool() { release(); }

  util::ThreadPool& pool() { return pool_; }
  void release() {
    if (!released_) {
      released_ = true;
      gate_.set_value();
      parked_.wait();
    }
  }

 private:
  util::ThreadPool pool_;
  std::promise<void> gate_;
  std::future<void> parked_;
  bool released_ = false;
};

TEST(Batcher, CoalescesSameScenarioRequestsIntoOneBatch) {
  const cloud::Platform platform = cloud::Platform::ec2();
  ServiceCounters counters;
  GatedPool gated;
  Batcher batcher(platform, gated.pool(), {.max_queue = 64}, counters);

  std::vector<std::future<HttpResponse>> futures;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto future = batcher.submit(make_eval(seed));
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
  }
  EXPECT_EQ(batcher.queue_depth(), 4u);

  gated.release();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const HttpResponse response = futures[seed].get();
    EXPECT_EQ(response.status, 200);
    // Byte-identical to the serial, uncached handler answer.
    EXPECT_EQ(response.body, evaluate_body(make_eval(seed).evaluate, platform));
  }

  EXPECT_EQ(counters.batches_run.load(), 1u);
  EXPECT_EQ(counters.requests_coalesced.load(), 3u);
  EXPECT_EQ(counters.responses_ok.load(), 4u);
  EXPECT_EQ(counters.queue_depth_peak.load(), 4u);
  EXPECT_EQ(batcher.queue_depth(), 0u);
}

TEST(Batcher, PhaseIsRecordedBeforeTheLastAnswerGoesOut) {
  // A /stats read that follows an answer must already count the batch
  // that produced it.
  obs::TraceRecorder recorder;
  obs::set_global_recorder(&recorder);
  const cloud::Platform platform = cloud::Platform::ec2();
  ServiceCounters counters;
  GatedPool gated;
  Batcher batcher(platform, gated.pool(), {.max_queue = 64}, counters);

  std::promise<bool> phase_seen;
  QueuedRequest request = make_eval(0);
  request.on_ready = [&](HttpResponse&&) {
    phase_seen.set_value(
        recorder.phase_stats().count("svc: batch montage|pareto") == 1);
  };
  auto future = batcher.submit(std::move(request));
  ASSERT_TRUE(future.has_value());
  gated.release();
  EXPECT_EQ(future->get().status, 200);
  EXPECT_TRUE(phase_seen.get_future().get());
  obs::set_global_recorder(nullptr);
}

TEST(Batcher, DistinctWorkflowsFormDistinctBatches) {
  const cloud::Platform platform = cloud::Platform::ec2();
  ServiceCounters counters;
  GatedPool gated;
  Batcher batcher(platform, gated.pool(), {.max_queue = 64}, counters);

  auto a = batcher.submit(make_eval(0, far_deadline(), "montage"));
  auto b = batcher.submit(make_eval(0, far_deadline(), "cstem"));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  gated.release();
  EXPECT_EQ(a->get().status, 200);
  EXPECT_EQ(b->get().status, 200);
  EXPECT_EQ(counters.batches_run.load(), 2u);
  EXPECT_EQ(counters.requests_coalesced.load(), 0u);
}

TEST(Batcher, RefusesBeyondQueueBound) {
  const cloud::Platform platform = cloud::Platform::ec2();
  ServiceCounters counters;
  GatedPool gated;
  Batcher batcher(platform, gated.pool(), {.max_queue = 2}, counters);

  auto a = batcher.submit(make_eval(0));
  auto b = batcher.submit(make_eval(1));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  // Queue full: the third submission is refused without being queued.
  EXPECT_FALSE(batcher.submit(make_eval(2)).has_value());
  EXPECT_EQ(batcher.queue_depth(), 2u);

  gated.release();
  EXPECT_EQ(a->get().status, 200);
  EXPECT_EQ(b->get().status, 200);

  // Capacity recovered after the batch ran.
  auto c = batcher.submit(make_eval(3));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->get().status, 200);
}

TEST(Batcher, ExpiredDeadlineAnswers504WithoutEvaluating) {
  const cloud::Platform platform = cloud::Platform::ec2();
  ServiceCounters counters;
  GatedPool gated;
  Batcher batcher(platform, gated.pool(), {.max_queue = 8}, counters);

  auto expired =
      batcher.submit(make_eval(0, Clock::now() - std::chrono::seconds(1)));
  auto live = batcher.submit(make_eval(1));
  ASSERT_TRUE(expired.has_value());
  ASSERT_TRUE(live.has_value());

  gated.release();
  const HttpResponse timed_out = expired->get();
  EXPECT_EQ(timed_out.status, 504);
  EXPECT_NE(timed_out.body.find("deadline"), std::string::npos);
  EXPECT_EQ(live->get().status, 200);
  EXPECT_EQ(counters.timeout_504.load(), 1u);
  EXPECT_EQ(counters.responses_ok.load(), 1u);
}

TEST(Batcher, BadWorkflowInQueueAnswers400) {
  const cloud::Platform platform = cloud::Platform::ec2();
  ServiceCounters counters;
  util::ThreadPool pool(1);
  Batcher batcher(platform, pool, {.max_queue = 8}, counters);

  // The server validates before queuing; the batcher still refuses garbage
  // that reaches a worker (defense in depth).
  auto future = batcher.submit(make_eval(0, far_deadline(), "no-such-dag"));
  ASSERT_TRUE(future.has_value());
  const HttpResponse response = future->get();
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(counters.bad_request_400.load(), 1u);
}

TEST(Batcher, TenantWeightedPickPreventsStarvation) {
  // Six anonymous batches are queued first; a registered tenant's batch
  // arrives last. FCFS would answer the tenant 7th — the DRR ring must
  // alternate, answering it on the second pick.
  const cloud::Platform platform = cloud::Platform::ec2();
  ServiceCounters counters;
  GatedPool gated;
  Batcher batcher(platform, gated.pool(), {.max_queue = 64}, counters);

  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto tagged = [&](QueuedRequest q, std::string label) {
    q.on_ready = [&order_mutex, &order,
                  label = std::move(label)](HttpResponse&&) {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(label);
    };
    return q;
  };

  // Distinct (workflow, scenario) keys so nothing coalesces: the anonymous
  // flood owns six waiting batches before the tenant submits one.
  const std::string anon_wfs[] = {"montage", "cstem", "mapreduce",
                                  "sequential", "ligo", "sipht"};
  std::vector<std::future<HttpResponse>> futures;
  for (const std::string& wf : anon_wfs) {
    auto future = batcher.submit(tagged(make_eval(0, far_deadline(), wf),
                                        "anon:" + wf));
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
  }

  QueuedRequest vip = make_eval(0, far_deadline(), "epigenomics");
  vip.tenant = 0;
  vip.tenant_weight = 1.0;
  auto vip_future = batcher.submit(tagged(std::move(vip), "tenant"));
  ASSERT_TRUE(vip_future.has_value());
  futures.push_back(std::move(*vip_future));

  gated.release();
  batcher.drain();
  for (auto& future : futures) EXPECT_EQ(future.get().status, 200);

  ASSERT_EQ(order.size(), 7u);
  const auto at = std::find(order.begin(), order.end(), "tenant");
  ASSERT_NE(at, order.end());
  EXPECT_EQ(at - order.begin(), 1)
      << "tenant batch served " << (at - order.begin() + 1)
      << "th — starved behind the anonymous flood";
}

TEST(Batcher, HeavierWeightBuysMoreBatchesPerPass) {
  // A weight-2 tenant with two waiting batches gets one per ring pass per
  // credit: its batches land 2nd and 4th against a six-deep anonymous
  // backlog (FCFS would answer them 7th and 8th).
  const cloud::Platform platform = cloud::Platform::ec2();
  ServiceCounters counters;
  GatedPool gated;
  Batcher batcher(platform, gated.pool(), {.max_queue = 64}, counters);

  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto tagged = [&](QueuedRequest q, std::string label) {
    q.on_ready = [&order_mutex, &order,
                  label = std::move(label)](HttpResponse&&) {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(label);
    };
    return q;
  };

  const std::string anon_wfs[] = {"montage", "cstem", "mapreduce",
                                  "sequential", "ligo", "sipht"};
  std::vector<std::future<HttpResponse>> futures;
  for (const std::string& wf : anon_wfs) {
    auto future = batcher.submit(tagged(make_eval(0, far_deadline(), wf),
                                        "anon:" + wf));
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
  }
  for (const std::string& wf : {std::string("epigenomics"),
                                std::string("cybershake")}) {
    QueuedRequest vip = make_eval(0, far_deadline(), wf);
    vip.tenant = 0;
    vip.tenant_weight = 2.0;
    auto future = batcher.submit(tagged(std::move(vip), "tenant:" + wf));
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
  }

  gated.release();
  batcher.drain();
  for (auto& future : futures) EXPECT_EQ(future.get().status, 200);

  ASSERT_EQ(order.size(), 8u);
  std::vector<std::ptrdiff_t> tenant_positions;
  for (auto it = order.begin(); it != order.end(); ++it)
    if (it->rfind("tenant:", 0) == 0)
      tenant_positions.push_back(it - order.begin());
  ASSERT_EQ(tenant_positions.size(), 2u);
  EXPECT_LE(tenant_positions[0], 1);
  EXPECT_LE(tenant_positions[1], 3);
}

TEST(Batcher, DrainWaitsForQueuedWork) {
  const cloud::Platform platform = cloud::Platform::ec2();
  ServiceCounters counters;
  util::ThreadPool pool(2);
  Batcher batcher(platform, pool, {.max_queue = 64}, counters);

  std::vector<std::future<HttpResponse>> futures;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto future = batcher.submit(make_eval(seed));
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
  }
  batcher.drain();
  EXPECT_EQ(batcher.queue_depth(), 0u);
  // After drain every future is already fulfilled — get() must not block.
  for (auto& future : futures) EXPECT_EQ(future.get().status, 200);
}

}  // namespace
}  // namespace cloudwf::svc
