// Bounded request queue + same-scenario batcher — the service's admission
// and backpressure layer.
//
// Every admitted compute request is keyed by (workflow, scenario). The
// first request of a key submits one job to the worker pool; requests that
// arrive for the same key while that job is still queued join its batch
// instead of submitting more jobs. When a worker finally runs the batch it
// takes *everything* pending under the key in arrival order and evaluates
// it through one shared EvalCache, so coalesced requests with overlapping
// seed ranges (the "rank all strategies" + "evaluate strategy X" fan-in
// pattern) share materialization and scheduling work.
//
// Admission control is a hard queue-depth bound: submit() refuses (the
// server answers 429) once `max_queue` requests are waiting, so an
// over-capacity client sees backpressure instead of unbounded memory
// growth and collapsing tail latency. Per-request deadlines are checked
// when a worker picks the request up — a request that waited out its
// deadline in the queue is answered 504 without burning compute.
//
// Batch pick order is tenant-weighted, not FCFS: each tenant (anonymous
// traffic counts as one synthetic tenant) owns a deque of the batch keys
// it opened, and a deficit-round-robin ring over the tenants decides which
// waiting batch the next free worker takes — one credit of `weight` per
// ring pass, one batch per whole credit. A flood of anonymous batches can
// therefore delay a registered tenant's request by at most ~one batch per
// ring pass instead of the whole flood (pinned by the batcher fairness
// test).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "svc/handlers.hpp"
#include "svc/http.hpp"
#include "svc/protocol.hpp"
#include "tenant/tenant.hpp"
#include "util/thread_pool.hpp"

namespace cloudwf::svc {

/// Monotonic service counters, surfaced verbatim on /stats. Plain relaxed
/// atomics: each is a statistic, not a synchronization point.
struct ServiceCounters {
  std::atomic<std::uint64_t> requests_total{0};
  std::atomic<std::uint64_t> requests_evaluate{0};
  std::atomic<std::uint64_t> requests_rank{0};
  std::atomic<std::uint64_t> unauthorized_401{0};
  std::atomic<std::uint64_t> requests_health{0};
  std::atomic<std::uint64_t> requests_stats{0};
  std::atomic<std::uint64_t> requests_tenants{0};
  std::atomic<std::uint64_t> responses_ok{0};
  std::atomic<std::uint64_t> rejected_429{0};
  std::atomic<std::uint64_t> bad_request_400{0};
  std::atomic<std::uint64_t> not_found_404{0};
  std::atomic<std::uint64_t> timeout_504{0};
  std::atomic<std::uint64_t> errors_500{0};
  std::atomic<std::uint64_t> batches_run{0};
  std::atomic<std::uint64_t> requests_coalesced{0};  ///< joined a waiting batch
  std::atomic<std::uint64_t> queue_depth_peak{0};
  std::atomic<std::uint64_t> connections_total{0};
  std::atomic<std::uint64_t> connections_rejected{0};
  std::atomic<std::uint64_t> connections_active{0};
  std::atomic<std::uint64_t> cache_hits{0};    ///< response-cache hits
  std::atomic<std::uint64_t> cache_misses{0};  ///< response-cache misses
};

/// One admitted compute request waiting for a worker.
struct QueuedRequest {
  enum class Kind : std::uint8_t { evaluate, rank };

  Kind kind = Kind::evaluate;
  bool binary = false;       ///< answer with a binproto frame, not JSON
  EvaluateRequest evaluate;  ///< valid when kind == evaluate
  RankRequest rank;          ///< valid when kind == rank
  tenant::TenantId tenant = tenant::kInvalidTenant;  ///< anonymous by default
  double tenant_weight = 1.0;  ///< DRR credit per ring pass (registry weight)
  std::chrono::steady_clock::time_point deadline;
  std::promise<HttpResponse> promise;
  /// Optional completion hook, invoked on the worker thread right after the
  /// promise is fulfilled, with a copy of the same response. The event loop
  /// uses it to marshal the answer back to the owning loop without a
  /// blocking future wait.
  std::function<void(HttpResponse&&)> on_ready;
};

class Batcher {
 public:
  struct Config {
    std::size_t max_queue = 64;  ///< admission bound (waiting requests)
  };

  Batcher(const cloud::Platform& platform, util::ThreadPool& pool, Config cfg,
          ServiceCounters& counters)
      : platform_(platform), pool_(pool), cfg_(cfg), counters_(counters) {}

  ~Batcher() { drain(); }

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Admits `request` (returning the future its worker will fulfil) or
  /// refuses with nullopt when the queue is at capacity.
  [[nodiscard]] std::optional<std::future<HttpResponse>> submit(
      QueuedRequest request);

  /// Requests currently waiting for a worker.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Blocks until every admitted request has been answered. New submissions
  /// during a drain are still accepted (the server gates admissions with
  /// its own stopping flag).
  void drain();

 private:
  void run_batch();
  /// Deficit-weighted choice of the next batch key (mutex_ held). Empty
  /// string when nothing is pending (a vacuous batch).
  [[nodiscard]] std::string pick_key();
  [[nodiscard]] HttpResponse answer(QueuedRequest& request, EvalCache& cache);

  const cloud::Platform& platform_;
  util::ThreadPool& pool_;
  const Config cfg_;
  ServiceCounters& counters_;

  mutable std::mutex mutex_;
  std::condition_variable idle_;
  std::map<std::string, std::vector<QueuedRequest>> pending_;
  std::size_t queued_ = 0;          ///< sum of pending_ sizes
  std::size_t running_batches_ = 0;

  /// DRR state (mutex_ held). A tenant appears in ring_ iff it has batch
  /// keys waiting; each pending_ bucket is referenced by exactly one
  /// tenant's deque (the tenant whose request opened it).
  struct TenantQueue {
    double weight = 1.0;
    double deficit = 0.0;
    std::deque<std::string> keys;
  };
  std::map<tenant::TenantId, TenantQueue> tenant_queues_;
  std::deque<tenant::TenantId> ring_;
};

}  // namespace cloudwf::svc
