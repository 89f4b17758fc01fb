#include "svc/batcher.hpp"

#include <optional>

#include "obs/trace.hpp"
#include "svc/binproto.hpp"

namespace cloudwf::svc {

namespace {

std::string batch_key(const QueuedRequest& request) {
  const bool is_eval = request.kind == QueuedRequest::Kind::evaluate;
  std::string key = is_eval ? request.evaluate.workflow : request.rank.workflow;
  key += '|';
  key += workload::name_of(is_eval ? request.evaluate.scenario
                                   : request.rank.scenario);
  return key;
}

}  // namespace

std::optional<std::future<HttpResponse>> Batcher::submit(
    QueuedRequest request) {
  const std::string key = batch_key(request);
  std::future<HttpResponse> future = request.promise.get_future();
  bool first_for_key = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (queued_ >= cfg_.max_queue) return std::nullopt;  // backpressure: 429
    std::vector<QueuedRequest>& bucket = pending_[key];
    first_for_key = bucket.empty();
    if (first_for_key) {
      // The opening tenant enrolls the batch in its DRR deque. Later
      // same-key arrivals (any tenant) coalesce into the bucket and ride
      // on this entry.
      TenantQueue& tq = tenant_queues_[request.tenant];
      tq.weight = request.tenant_weight;
      if (tq.keys.empty()) ring_.push_back(request.tenant);
      tq.keys.push_back(key);
    } else {
      counters_.requests_coalesced.fetch_add(1, std::memory_order_relaxed);
    }
    bucket.push_back(std::move(request));
    ++queued_;
    std::uint64_t peak =
        counters_.queue_depth_peak.load(std::memory_order_relaxed);
    while (peak < queued_ && !counters_.queue_depth_peak.compare_exchange_weak(
                                 peak, queued_, std::memory_order_relaxed)) {
    }
  }
  // One pool job per batch: later same-key arrivals ride along instead of
  // submitting their own jobs. Which waiting batch the job actually takes
  // is decided by the DRR pick when a worker runs it, so #jobs == #batches
  // but job order is tenant-weighted, not FCFS. The future is intentionally
  // dropped — run_batch fulfils every request's promise itself and never
  // throws.
  if (first_for_key)
    static_cast<void>(pool_.submit([this] { run_batch(); }));
  return future;
}

std::size_t Batcher::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

void Batcher::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queued_ == 0 && running_batches_ == 0; });
}

std::string Batcher::pick_key() {
  // Each pass grants the front tenant `weight` credit; a whole credit buys
  // its oldest waiting batch. Tenants leave the ring when their deque
  // empties (deficit reset: idle tenants must not bank credit). Bounded
  // spins guard against sub-1.0 weights starving the loop; the fallback
  // (oldest key in map order) keeps liveness no matter what.
  for (std::size_t spin = 0; spin < 64 + ring_.size() * 64; ++spin) {
    if (ring_.empty()) break;
    const tenant::TenantId id = ring_.front();
    ring_.pop_front();
    TenantQueue& tq = tenant_queues_[id];
    // Keys whose bucket was already taken (possible only after a fallback
    // pick below) are dead — discard them instead of serving air.
    while (!tq.keys.empty() && pending_.find(tq.keys.front()) == pending_.end())
      tq.keys.pop_front();
    if (tq.keys.empty()) {
      tq.deficit = 0.0;
      continue;  // drop from the ring
    }
    tq.deficit += tq.weight;
    if (tq.deficit < 1.0) {
      ring_.push_back(id);
      continue;
    }
    tq.deficit -= 1.0;
    std::string key = std::move(tq.keys.front());
    tq.keys.pop_front();
    if (tq.keys.empty())
      tq.deficit = 0.0;
    else
      ring_.push_back(id);
    return key;
  }
  return pending_.empty() ? std::string() : pending_.begin()->first;
}

HttpResponse Batcher::answer(QueuedRequest& request, EvalCache& cache) {
  HttpResponse response;
  const bool binary = request.binary;
  if (binary) response.content_type = kBinaryContentType;
  const auto error_payload = [binary](int status, const std::string& message) {
    return binary ? bin_error_frame(status, message) : error_body(message);
  };

  if (std::chrono::steady_clock::now() > request.deadline) {
    counters_.timeout_504.fetch_add(1, std::memory_order_relaxed);
    response.status = 504;
    response.body = error_payload(504, "deadline exceeded while queued");
    return response;
  }
  try {
    const bool is_eval = request.kind == QueuedRequest::Kind::evaluate;
    if (binary)
      response.body =
          is_eval ? evaluate_body_bin(request.evaluate, platform_, &cache)
                  : rank_body_bin(request.rank, platform_, &cache);
    else
      response.body = is_eval
                          ? evaluate_body(request.evaluate, platform_, &cache)
                          : rank_body(request.rank, platform_, &cache);
    counters_.responses_ok.fetch_add(1, std::memory_order_relaxed);
  } catch (const BadRequest& e) {
    counters_.bad_request_400.fetch_add(1, std::memory_order_relaxed);
    response.status = 400;
    response.body = error_payload(400, e.what());
  } catch (const std::exception& e) {
    counters_.errors_500.fetch_add(1, std::memory_order_relaxed);
    response.status = 500;
    response.body =
        error_payload(500, std::string("evaluation failed: ") + e.what());
  }
  return response;
}

void Batcher::run_batch() {
  std::string key;
  std::vector<QueuedRequest> batch;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    key = pick_key();
    auto it = pending_.find(key);
    if (it == pending_.end() && !pending_.empty()) it = pending_.begin();
    if (it != pending_.end()) {
      key = it->first;
      batch = std::move(it->second);
      pending_.erase(it);
      queued_ -= batch.size();
    }
    ++running_batches_;
  }
  counters_.batches_run.fetch_add(1, std::memory_order_relaxed);

  {
    std::optional<obs::PhaseScope> phase;
    phase.emplace("svc: batch " + key);
    EvalCache cache;  // shared across the whole batch: coalesced requests
                      // with overlapping cells evaluate each cell once
    for (QueuedRequest& request : batch) {
      HttpResponse response = answer(request, cache);
      // The phase closes before the batch's last answer goes out, so a
      // /stats read that follows any answer already counts this batch.
      if (&request == &batch.back()) phase.reset();
      if (request.on_ready) {
        HttpResponse copy = response;
        request.promise.set_value(std::move(response));
        request.on_ready(std::move(copy));
      } else {
        request.promise.set_value(std::move(response));
      }
    }
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --running_batches_;
    // Notify while holding the mutex: drain()'s waiter may destroy this
    // Batcher the moment it observes idle, and the lock guarantees that
    // cannot happen while this worker is still inside notify_all().
    idle_.notify_all();
  }
}

}  // namespace cloudwf::svc
