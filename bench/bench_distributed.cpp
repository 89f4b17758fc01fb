// Scaling bench for the distributed sweep fabric: one fixed grid served by
// a dist::CoordinatorServer to 1, 2 and 4 workers — in-process
// dist::run_worker threads over loopback HTTP, each holding every lease
// for a fixed remote-service time (--remote-ms, the worker's
// delay_per_shard) after executing the shard. That emulates the dominant
// cost of a real deployment: the remote machine computing while the
// coordinator waits. The shard count is held constant across worker
// counts, so the measured speedup is pure coordinator overlap: can the
// fabric keep W leases in flight at once, re-merge in order, and not
// serialize anywhere? (CPU-bound scaling on a multicore host is perfbench
// sweep-paper's; this bench isolates the fabric and therefore also
// measures honestly on a single-core CI runner, where `--remote-ms 0`
// would show nothing but lease and HTTP overhead.)
//
// Every distributed run is byte-compared against the serial
// exp::run_grid_serial rows — the bench aborts on any divergence, so a
// fast wrong answer can never produce a good-looking number.
//
// Usage: bench_distributed [--seeds N] [--reps N] [--remote-ms D]
//                          [--json FILE]
//
// --json FILE writes BENCH_DISTRIBUTED.json for
// tools/check_bench_regression.py: the 2-worker median wall time (cost,
// calibration-normalized like every other bench) plus the measured
// speedup_2x = 1-worker / 2-worker wall, which the gate floors at 1.5.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "exp/sweep_grid.hpp"
#include "scheduling/factory.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"

#include "harness.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using cloudwf::util::format_double;

/// One distributed sweep of `grid` in `shards` shards over `workers`
/// worker threads, each holding its lease `remote` past the shard's run.
cloudwf::dist::SweepOutcome run_pull(const cloudwf::exp::SweepGridSpec& grid,
                                     std::size_t shards, std::size_t workers,
                                     std::chrono::milliseconds remote,
                                     const cloudwf::cloud::Platform& platform) {
  cloudwf::dist::CoordinatorServer coordinator(grid, shards, {});
  coordinator.start();
  cloudwf::dist::WorkerOptions options;
  options.port = coordinator.port();
  options.delay_per_shard = remote;
  options.poll_interval = std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w)
    threads.emplace_back(
        [&] { (void)cloudwf::dist::run_worker(options, platform); });
  cloudwf::dist::SweepOutcome outcome = coordinator.finish();
  for (std::thread& thread : threads) thread.join();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 1;  // seeds 0..seeds-1
  std::size_t reps = 3;
  std::uint64_t remote_ms = 60;
  std::string json_path;
  using cloudwf::util::parse_u64;
  try {
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg == "--seeds" && a + 1 < argc) {
        seeds = parse_u64(argv[++a], "--seeds");
      } else if (arg == "--reps" && a + 1 < argc) {
        reps = cloudwf::util::parse_size(argv[++a], "--reps");
      } else if (arg == "--remote-ms" && a + 1 < argc) {
        remote_ms = parse_u64(argv[++a], "--remote-ms");
      } else if (arg == "--json" && a + 1 < argc) {
        json_path = argv[++a];
      } else {
        std::cerr << "usage: bench_distributed [--seeds N] [--reps N] "
                     "[--remote-ms D] [--json FILE]\n";
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  if (seeds == 0) seeds = 1;
  if (reps == 0) reps = 1;

  const cloudwf::cloud::Platform platform = cloudwf::cloud::Platform::ec2();
  cloudwf::exp::SweepGridSpec grid;
  // Scaled Pegasus families: the paper's four Fig. 2 structures are tiny
  // (tens of tasks, microseconds per cell) and would measure nothing but
  // tracker overhead. A few hundred tasks per workflow gives each shard
  // real scheduling work, which is what the fabric exists to distribute.
  grid.workflows = {"epigenomics:300", "cybershake:300", "ligo:300",
                    "sipht:300"};
  grid.scenarios = {cloudwf::workload::ScenarioKind::pareto,
                    cloudwf::workload::ScenarioKind::worst_case};
  grid.strategies = cloudwf::scheduling::paper_strategy_labels();
  grid.seed_begin = 0;
  grid.seed_end = seeds - 1;
  cloudwf::exp::validate_grid(grid);

  std::cout << "bench_distributed: " << grid.cell_count() << " cells ("
            << grid.workflows.size() << " workflows x "
            << grid.scenarios.size() << " scenarios x " << seeds
            << " seeds x " << grid.strategies.size() << " strategies), "
            << reps << " reps\n";

  // Serial reference — also the bitwise truth every distributed run must
  // reproduce.
  std::vector<cloudwf::exp::SweepRow> serial_rows;
  std::vector<double> serial_samples;
  for (std::size_t r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    std::vector<cloudwf::exp::SweepRow> rows =
        cloudwf::exp::run_grid_serial(grid, platform);
    serial_samples.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
    if (r == 0) serial_rows = std::move(rows);
  }
  const double median_serial = cloudwf::bench::median(serial_samples);
  std::cout << "  serial      " << format_double(median_serial, 1)
            << " ms (median of " << reps << ")\n";

  // Fixed shard count across worker counts: the grid is always cut into
  // the same 16 shards, so wall-time differences come only from how many
  // leases the coordinator overlaps, never from a different partition.
  constexpr std::size_t kTotalShards = 16;
  const std::vector<std::size_t> worker_counts = {1, 2, 4};
  std::vector<double> medians(worker_counts.size(), 0.0);
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    const std::size_t count = worker_counts[i];
    std::vector<double> samples;
    for (std::size_t r = 0; r < reps; ++r) {
      const Clock::time_point start = Clock::now();
      const cloudwf::dist::SweepOutcome outcome =
          run_pull(grid, kTotalShards, count,
                   std::chrono::milliseconds(remote_ms), platform);
      samples.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count());
      if (outcome.rows != serial_rows) {
        std::cerr << "FATAL: " << count
                  << "-worker distributed rows differ from serial rows\n";
        return 1;
      }
    }
    medians[i] = cloudwf::bench::median(samples);
    std::cout << "  " << count << " worker" << (count == 1 ? " " : "s")
              << "    " << format_double(medians[i], 1) << " ms  (speedup "
              << format_double(medians[0] / medians[i], 2)
              << "x vs 1 worker)\n";
  }

  const double speedup_2x = medians[0] / medians[1];
  const double speedup_4x = medians[0] / medians[2];

  if (!json_path.empty()) {
    const double cal = cloudwf::bench::calibration_ms();
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << '\n';
      return 1;
    }
    out << "{\n"
        << "  \"benchmark\": \"bench_distributed\",\n"
        << "  \"cells\": " << grid.cell_count() << ",\n"
        << "  \"seeds\": " << seeds << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"remote_ms\": " << remote_ms << ",\n"
        << "  \"shards\": " << kTotalShards << ",\n"
        << "  \"median_serial_ms_info\": " << format_double(median_serial, 3)
        << ",\n"
        << "  \"median_distributed_ms\": " << format_double(medians[1], 3)
        << ",\n"
        << "  \"median_1worker_ms\": " << format_double(medians[0], 3)
        << ",\n"
        << "  \"median_4worker_ms\": " << format_double(medians[2], 3)
        << ",\n"
        << "  \"speedup_2x\": " << format_double(speedup_2x, 3) << ",\n"
        << "  \"speedup_4x\": " << format_double(speedup_4x, 3) << ",\n"
        << "  \"calibration_ms\": " << format_double(cal, 3) << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << '\n';
  }
  return 0;
}
