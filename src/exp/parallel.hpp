// Deterministic parallel execution engine for the experiment grids.
//
// The sweep and grid loops in exp/ are embarrassingly parallel: every cell
// (a seed, a workflow size, a strategy) is a pure function of its inputs.
// parallel_map runs those cells on a fixed-size worker pool while keeping
// two guarantees:
//
//  1. **Stable ordering** — results come back indexed by job, never by
//     completion order, so aggregation code sees exactly the serial order.
//  2. **Private RNG streams** — a job that needs randomness derives it from
//     job_seed(base_seed, job_index), a SplitMix64 stream-split that is a
//     pure function of (base seed, index) and therefore independent of which
//     worker runs the job, in what order, or how many workers exist.
//
// Together these make parallel output bit-identical to serial output for
// any worker count, including the threads = 1 inline fallback. The
// equivalence is enforced by tests/exp/parallel_equivalence_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cloudwf::exp {

/// Worker-count knob threaded through the experiment layer.
struct ParallelConfig {
  /// Number of workers; 0 (the default) means hardware_concurrency().
  std::size_t threads = 0;

  /// The worker count actually used: `threads`, or hardware_concurrency()
  /// (at least 1) when `threads` is 0.
  [[nodiscard]] std::size_t resolved_threads() const noexcept;

  /// Convenience for forcing the serial path (e.g. inside outer-level jobs,
  /// where nested pools would only oversubscribe).
  [[nodiscard]] static constexpr ParallelConfig serial() noexcept {
    return ParallelConfig{1};
  }
};

/// Seed of job `job_index`'s private RNG stream: one SplitMix64 step over
/// `base_seed + job_index`. Consecutive indices land in unrelated regions of
/// the 2^64 output space, so streams are decorrelated (see
/// tests/util/rng_stream_test.cpp); pure integer arithmetic, so the value is
/// identical on every platform and worker schedule.
[[nodiscard]] constexpr std::uint64_t job_seed(
    std::uint64_t base_seed, std::uint64_t job_index) noexcept {
  std::uint64_t s = base_seed + job_index;
  return util::splitmix64(s);
}

/// A generator seeded with job_seed(base_seed, job_index).
[[nodiscard]] inline util::Rng job_rng(std::uint64_t base_seed,
                                       std::uint64_t job_index) noexcept {
  return util::Rng(job_seed(base_seed, job_index));
}

/// Runs fn(0), fn(1), ..., fn(jobs-1) and returns their results in index
/// order. With resolved_threads() <= 1 (or fewer than two jobs) everything
/// runs inline on the calling thread; otherwise jobs run on a pool of
/// min(threads, jobs) workers. The first failing job's exception (in index
/// order) is rethrown after in-flight jobs complete.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t jobs, const ParallelConfig& config,
                                Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using R = decltype(fn(std::size_t{}));
  std::vector<R> out;
  out.reserve(jobs);
  const std::size_t threads = config.resolved_threads();
  if (threads <= 1 || jobs <= 1) {
    for (std::size_t i = 0; i < jobs; ++i) out.push_back(fn(i));
    return out;
  }
  util::ThreadPool pool(threads < jobs ? threads : jobs);
  std::vector<std::future<R>> futures;
  futures.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i)
    futures.push_back(pool.submit([&fn, i] { return fn(i); }));
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

}  // namespace cloudwf::exp
