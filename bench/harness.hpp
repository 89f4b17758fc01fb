// Timing helpers shared by the gated benches — the ones whose --json output
// tools/check_bench_regression.py compares against a committed baseline.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace cloudwf::bench {

/// The middle sample after sorting (the upper middle for an even count).
[[nodiscard]] inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Calibration anchor: a fixed CPU-bound kernel (32M splitmix64 steps from
/// seed 0x1db2013) timed three times in the calling process, median taken.
/// The regression gate compares each bench's time against it, so a slower
/// (or faster) host moves both numbers together instead of tripping the
/// threshold on machine drift. Every committed baseline's calibration_ms
/// was measured with this exact kernel; changing it breaks comparability.
[[nodiscard]] inline double calibration_ms() {
  const auto timed = [] {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t state = 0x1db2013, acc = 0;
    for (int i = 0; i < 32'000'000; ++i) acc ^= util::splitmix64(state);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    // acc escapes through the comparison so the loop cannot fold away.
    return acc == 0 ? ms + 1e-9 : ms;
  };
  return median({timed(), timed(), timed()});
}

}  // namespace cloudwf::bench
