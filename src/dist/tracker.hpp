// Shard lease bookkeeping for the distributed sweep fabric.
//
// A ShardTracker owns the fixed shard list a coordinator produced with
// exp::partition_grid and hands shards out under time-limited leases:
//
//   - acquire() grants the oldest pending shard, else re-issues a shard
//     whose lease expired (a lost worker never reports; its lease simply
//     times out), else (speculation) re-issues the longest-outstanding live
//     lease once it is past half its window, so a straggler cannot stall
//     the tail of the sweep. At most one speculative copy runs per shard.
//   - complete() is first-completion-wins: the first rows reported for a
//     shard id are stored, every later report is discarded as a duplicate
//     (re-issued shards race by design; both answers are bit-identical, so
//     dropping the loser is safe).
//
// Each grant consumes one of `max_attempts` attempts; a shard whose
// attempts are exhausted and whose leases have all expired marks the sweep
// dead (`dead()`) rather than looping forever on a poisoned shard.
//
// All methods are thread-safe.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "exp/sweep_grid.hpp"

namespace cloudwf::dist {

struct TrackerConfig {
  /// A lease older than this is considered lost and the shard re-issuable.
  std::chrono::milliseconds lease_timeout{30000};
  /// Total grants per shard (first lease + re-issues). Exhausting this
  /// without a completion marks the sweep dead.
  std::size_t max_attempts = 4;
};

/// Monotonic counters, readable while the sweep runs.
struct TrackerStats {
  std::uint64_t leases_granted = 0;
  std::uint64_t reissues_expired = 0;      ///< grants after a lease timed out
  std::uint64_t reissues_speculative = 0;  ///< straggler double-runs
  std::uint64_t duplicates_discarded = 0;  ///< complete() after first winner
  std::uint64_t completions = 0;           ///< first completions accepted
};

/// Outcome of one acquire() call.
enum class AcquireStatus : std::uint8_t {
  granted,  ///< `shard` holds the lease
  wait,     ///< nothing to hand out now, but the sweep is still running
  done,     ///< every shard completed — or the sweep is dead (check dead())
};

struct Acquired {
  AcquireStatus status = AcquireStatus::wait;
  exp::ShardSpec shard;  ///< valid when status == granted
};

class ShardTracker {
 public:
  explicit ShardTracker(std::vector<exp::ShardSpec> shards,
                        TrackerConfig config = {});

  /// Non-blocking grant (see the header comment for the preference order).
  [[nodiscard]] Acquired acquire();

  /// Reports a shard's rows. Returns true when this call won (rows stored),
  /// false for a duplicate or unknown shard id (rows discarded).
  bool complete(std::uint64_t shard_id, std::vector<exp::SweepRow> rows);

  /// True when every shard has accepted rows.
  [[nodiscard]] bool all_done() const;

  /// True when some shard exhausted max_attempts with every lease expired —
  /// the sweep cannot complete.
  [[nodiscard]] bool dead() const;

  /// Blocks until all_done() or dead().
  void wait_finished();

  [[nodiscard]] const std::vector<exp::ShardSpec>& shards() const noexcept {
    return shards_;
  }

  /// Per-shard rows in shard order. Throws std::logic_error unless
  /// all_done().
  [[nodiscard]] std::vector<std::vector<exp::SweepRow>> results() const;

  [[nodiscard]] TrackerStats stats() const;

 private:
  enum class State : std::uint8_t { pending, leased, done };
  struct Entry {
    State state = State::pending;
    std::size_t attempts = 0;     ///< grants so far
    std::size_t live_leases = 0;  ///< grants whose deadline has not passed
    std::chrono::steady_clock::time_point oldest_lease;  ///< earliest live
    std::chrono::steady_clock::time_point deadline;      ///< latest expiry
    std::vector<exp::SweepRow> rows;
  };

  [[nodiscard]] Acquired acquire_locked(
      std::chrono::steady_clock::time_point now);
  void refresh_locked(std::chrono::steady_clock::time_point now);

  const TrackerConfig config_;
  std::vector<exp::ShardSpec> shards_;

  mutable std::mutex mutex_;
  std::condition_variable changed_;
  std::vector<Entry> entries_;
  std::size_t done_count_ = 0;
  bool dead_ = false;
  TrackerStats stats_;
};

}  // namespace cloudwf::dist
