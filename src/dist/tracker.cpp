#include "dist/tracker.hpp"

#include <stdexcept>

namespace cloudwf::dist {

ShardTracker::ShardTracker(std::vector<exp::ShardSpec> shards,
                           TrackerConfig config)
    : config_(config), shards_(std::move(shards)) {
  if (shards_.empty())
    throw std::invalid_argument("ShardTracker needs at least one shard");
  if (config_.max_attempts == 0)
    throw std::invalid_argument("ShardTracker needs max_attempts >= 1");
  entries_.resize(shards_.size());
}

void ShardTracker::refresh_locked(std::chrono::steady_clock::time_point now) {
  for (Entry& entry : entries_) {
    if (entry.state != State::leased) continue;
    if (entry.live_leases > 0 && now >= entry.deadline) entry.live_leases = 0;
    if (entry.live_leases == 0 && entry.attempts >= config_.max_attempts)
      dead_ = true;
  }
}

Acquired ShardTracker::acquire_locked(
    std::chrono::steady_clock::time_point now) {
  Acquired result;
  if (done_count_ == entries_.size() || dead_) {
    result.status = AcquireStatus::done;
    return result;
  }

  const auto grant = [&](std::size_t i) {
    Entry& entry = entries_[i];
    entry.state = State::leased;
    entry.attempts += 1;
    entry.live_leases += 1;
    if (entry.live_leases == 1) entry.oldest_lease = now;
    const auto deadline = now + config_.lease_timeout;
    if (entry.live_leases == 1 || deadline > entry.deadline)
      entry.deadline = deadline;
    stats_.leases_granted += 1;
    result.status = AcquireStatus::granted;
    result.shard = shards_[i];
  };

  // 1. Oldest pending shard.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (entry.state == State::pending && entry.attempts < config_.max_attempts) {
      grant(i);
      return result;
    }
  }
  // 2. A shard whose every lease expired (lost worker).
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (entry.state == State::leased && entry.live_leases == 0 &&
        entry.attempts < config_.max_attempts) {
      grant(i);
      stats_.reissues_expired += 1;
      return result;
    }
  }
  // 3. Speculation: double-run the longest-outstanding single lease once it
  // has consumed at least half its lease window (a straggler, not a shard
  // that was just handed out).
  std::size_t best = entries_.size();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (entry.state != State::leased || entry.live_leases != 1 ||
        entry.attempts >= config_.max_attempts)
      continue;
    if (now - entry.oldest_lease < config_.lease_timeout / 2) continue;
    if (best == entries_.size() ||
        entry.oldest_lease < entries_[best].oldest_lease)
      best = i;
  }
  if (best != entries_.size()) {
    grant(best);
    stats_.reissues_speculative += 1;
    return result;
  }
  result.status = AcquireStatus::wait;
  return result;
}

Acquired ShardTracker::acquire() {
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  refresh_locked(now);
  return acquire_locked(now);
}

bool ShardTracker::complete(std::uint64_t shard_id,
                            std::vector<exp::SweepRow> rows) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (shard_id >= entries_.size()) return false;
  Entry& entry = entries_[shard_id];
  if (entry.state == State::done) {
    stats_.duplicates_discarded += 1;
    return false;
  }
  entry.state = State::done;
  entry.live_leases = 0;
  entry.rows = std::move(rows);
  done_count_ += 1;
  stats_.completions += 1;
  changed_.notify_all();
  return true;
}

bool ShardTracker::all_done() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return done_count_ == entries_.size();
}

bool ShardTracker::dead() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dead_;
}

void ShardTracker::wait_finished() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    refresh_locked(now);
    if (done_count_ == entries_.size() || dead_) return;
    changed_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

std::vector<std::vector<exp::SweepRow>> ShardTracker::results() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (done_count_ != entries_.size())
    throw std::logic_error("ShardTracker::results before all shards done");
  std::vector<std::vector<exp::SweepRow>> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.rows);
  return out;
}

TrackerStats ShardTracker::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace cloudwf::dist
