// The pull-mode worker loop behind `cloudwf worker`.
//
// A worker connects to a CoordinatorServer, leases shards
// (POST /v1/shard/lease), executes them with exp::run_shard — the exact
// serial code path, so every row it streams back is bit-identical to the
// coordinator running the cell itself — and reports rows as binary
// shard_response frames (POST /v1/shard/result). 503 means back off and
// retry; 204 means the sweep is finished and the worker exits. Any other
// answer to a lease (401 for a missing token, 410 for a failed sweep)
// ends the loop with the coordinator's reason in WorkerReport::failure.
//
// Fault-injection knobs for the failure/straggler tests and the CI smoke:
// `delay_per_shard` sleeps before reporting (a straggler the coordinator
// must speculate around) and `max_shards` exits the loop mid-sweep (a
// killed worker whose lease must expire and be re-issued).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "cloud/platform.hpp"

namespace cloudwf::dist {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string auth_token;  ///< sent as X-Auth-Token when non-empty
  std::chrono::milliseconds poll_interval{50};  ///< back-off after a 503
  std::chrono::milliseconds delay_per_shard{0};  ///< straggler injection
  std::size_t max_shards = static_cast<std::size_t>(-1);  ///< exit after N
  std::size_t connect_retries = 40;  ///< coordinator-not-up-yet grace
};

struct WorkerReport {
  std::size_t shards_completed = 0;  ///< results the coordinator accepted
  std::size_t shards_duplicate = 0;  ///< results it discarded (lost a race)
  std::size_t shards_failed = 0;     ///< local execution errors (lease lost)
  bool finished = false;  ///< saw the coordinator's 204 (sweep complete)
  /// The coordinator's refusal of a lease, as "<status>: <body>"; empty
  /// when it never refused one.
  std::string failure;
};

/// Runs the pull loop until the coordinator reports the sweep done or
/// refuses a lease, the shard budget is exhausted, or the coordinator
/// becomes unreachable.
[[nodiscard]] WorkerReport run_worker(
    const WorkerOptions& options,
    const cloud::Platform& platform = cloud::Platform::ec2());

}  // namespace cloudwf::dist
