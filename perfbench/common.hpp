// Shared pieces of the perfbench program: options, the result record every
// workload fills, and the small statistics and hashing helpers the
// workloads share.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Set-up runs this many times per untraced run; setup_s is the median.
inline constexpr int kSetups = 9;

/// The four workflows of the paper, as the service and the sweeps name them.
inline const std::array<std::string, 4> kPaperWorkflows = {
    "montage", "cstem", "mapreduce", "sequential"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string trace_file;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run prints as its last line.
struct Report {
  bool correct = true;  ///< false when a pinned or replica check fails
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one failed operation and logs the first few reasons to stderr.
  void fail(const std::string& why);
  /// A failed check that is not tied to one operation (pinned digest,
  /// replica mismatch): marks the run incorrect.
  void wrong(const std::string& why);
};

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},...}}.
[[nodiscard]] std::string report_json(const Report& report);

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t hash = 14695981039346656037ull);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Every per-layer name a traced run reports (as <name>.busy_ms and
/// <name>.calls), svc and sweep layers alike.
[[nodiscard]] const std::vector<std::string>& layer_names();

struct LayerStat {
  double busy_ms = 0;  ///< summed self time
  std::uint64_t calls = 0;
};

/// Everything a traced run reports. Workloads without a server leave the
/// svc counters at 0.
struct PerLayer {
  std::map<std::string, LayerStat> layers;  ///< by layer name
  double hit_ratio = 0;
  double batches = 0;
  double coalesced_ratio = 0;
  double queue_peak = 0;
  double refused = 0;
  double lag_p99_ms = 0;
  double traced_ms = 0;   ///< traced end-to-end time (coverage's base)
  double replica_ms = 0;  ///< replica of the production call
  double prod_ms = 0;     ///< the production call on the same inputs
};

/// Adds every per-layer metric, in one fixed order for all workloads.
void add_per_layer(Report& report, const PerLayer& per_layer);

/// Workload entry points. Each runs set-up, the measured window and the
/// output checks, and fills the end-to-end metrics (untraced) or the
/// per-layer metrics (traced).
[[nodiscard]] Report run_svc(const Options& options);
[[nodiscard]] Report run_sweep(const Options& options);

}  // namespace perfbench
