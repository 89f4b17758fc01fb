// Throughput bench for the deterministic parallel sweep engine: the Montage
// seed sweep (the Fig. 4 re-roll) timed serially and on 2/4/8-worker pools.
//
// Two things are measured:
//  (1) scaling — wall time and speedup per worker count (on a single-core
//      host every speedup reads ~1.0x; the pool adds no throughput, only
//      scheduling overhead, which the overhead row quantifies);
//  (2) determinism — every parallel table is compared byte-for-byte against
//      the serial one. A mismatch is a hard failure (exit 1): fast-but-wrong
//      is not a speedup.
//
// Usage: bench_parallel_sweep [seeds] [--json FILE]   (default 50 seeds)
//
// --json FILE re-times the serial sweep several times and writes the median
// to FILE in the BENCH_SWEEP.json format tools/check_bench_regression.py
// gates CI on (medians absorb single-run scheduler noise).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/seed_sweep.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace cloudwf;
  using Clock = std::chrono::steady_clock;

  std::size_t seeds = 50;
  std::string json_path;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--json" && a + 1 < argc) {
      json_path = argv[++a];
      continue;
    }
    try {
      seeds = util::parse_size(arg, "seeds", 1);
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what()
                << "\nusage: bench_parallel_sweep [seeds>=1] [--json FILE]\n";
      return EXIT_FAILURE;
    }
  }
  const dag::Workflow montage = exp::paper_workflows()[0];
  const cloud::Platform platform = cloud::Platform::ec2();

  std::cout << "=== Parallel seed sweep: montage, " << seeds
            << " Pareto seeds, 19 strategies ===\n"
            << "(hardware_concurrency = "
            << exp::ParallelConfig{}.resolved_threads() << ")\n\n";

  const auto timed_sweep = [&](std::size_t threads) {
    const auto start = Clock::now();
    auto rows = exp::seed_sweep(montage, platform, seeds, 0x1db2013,
                                exp::ParallelConfig{threads});
    const double ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - start)
                          .count();
    return std::pair(std::move(rows), ms);
  };

  // Warm-up run: fault in code and allocator pools outside the timings.
  (void)timed_sweep(1);

  if (!json_path.empty()) {
    constexpr int kRepeats = 5;
    std::vector<double> samples;
    samples.reserve(kRepeats);
    for (int r = 0; r < kRepeats; ++r) samples.push_back(timed_sweep(1).second);
    const double median = bench::median(samples);
    const double calibration = bench::calibration_ms();

    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "FAIL: cannot write " << json_path << '\n';
      return EXIT_FAILURE;
    }
    out << "{\n"
        << "  \"benchmark\": \"bench_parallel_sweep\",\n"
        << "  \"workflow\": \"" << montage.name() << "\",\n"
        << "  \"scenario\": \"pareto\",\n"
        << "  \"strategies\": 19,\n"
        << "  \"seeds\": " << seeds << ",\n"
        << "  \"repeats\": " << kRepeats << ",\n"
        << "  \"serial_ms\": [";
    for (std::size_t i = 0; i < samples.size(); ++i)
      out << (i ? ", " : "") << util::format_double(samples[i], 3);
    out << "],\n"
        << "  \"median_serial_ms\": " << util::format_double(median, 3) << ",\n"
        << "  \"calibration_ms\": " << util::format_double(calibration, 3)
        << "\n"
        << "}\n";
    std::cout << "median serial sweep: " << util::format_double(median, 1)
              << " ms over " << kRepeats << " repeats (" << seeds
              << " seeds) -> " << json_path << '\n';
    return EXIT_SUCCESS;
  }

  const auto [serial_rows, serial_ms] = timed_sweep(1);
  const std::string golden = exp::seed_sweep_table(serial_rows).render();

  util::TextTable t({"workers", "wall ms", "speedup", "efficiency",
                     "identical to serial"});
  t.add_row({"1 (serial)", util::format_double(serial_ms, 1), "1.00x", "100%",
             "yes (by definition)"});

  bool all_identical = true;
  for (std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const auto [rows, ms] = timed_sweep(workers);
    const bool identical = exp::seed_sweep_table(rows).render() == golden;
    all_identical = all_identical && identical;
    const double speedup = serial_ms / ms;
    t.add_row({std::to_string(workers), util::format_double(ms, 1),
               util::format_double(speedup, 2) + "x",
               util::format_double(100.0 * speedup /
                                       static_cast<double>(workers),
                                   0) +
                   "%",
               identical ? "yes" : "NO — DETERMINISM VIOLATED"});
  }
  std::cout << t << '\n';

  std::cout << "Determinism: parallel tables are "
            << (all_identical ? "byte-identical" : "DIFFERENT")
            << " across worker counts.\n"
            << "Reading: speedup tracks physical cores — expect ~2x at 4 "
               "workers on >= 4 cores; on fewer cores the identical output "
               "is the point, the speedup column just reports overhead.\n";

  if (!all_identical) {
    std::cerr << "FAIL: parallel output diverged from serial output\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
