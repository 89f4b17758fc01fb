// Large-DAG benchmark: the full 19-strategy evaluation on Pegasus-family
// instances scaled to 10^3-10^4 tasks (the DAG axis the paper's 24-task
// workflows never exercised).
//
// Two modes:
//   bench_large_dag [--tasks N] [--family F] [--profile]
//     Per-strategy wall-clock table on one instance (default: 1000-task
//     epigenomics, pareto scenario). --profile adds a size sweep
//     (1k/2k/5k/10k) with per-strategy-family subtotals — the view that
//     located the quadratic corners the SoA refactor removed.
//   bench_large_dag --json FILE [--tasks N] [--family F]
//     Times the serial 19-strategy run_all median-of-5 and writes the
//     BENCH_LARGE_DAG.json baseline tools/check_bench_regression.py gates
//     CI on (sweep format: median_serial_ms + splitmix calibration anchor).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dag/science.hpp"
#include "exp/experiment.hpp"
#include "exp/parallel.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include "harness.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cloudwf;

  std::size_t tasks = 1000;
  std::string family_name = "epigenomics";
  std::string json_path;
  bool profile = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--json" && a + 1 < argc) {
      json_path = argv[++a];
    } else if (arg == "--tasks" && a + 1 < argc) {
      tasks = static_cast<std::size_t>(std::strtoull(argv[++a], nullptr, 10));
    } else if (arg == "--family" && a + 1 < argc) {
      family_name = argv[++a];
    } else if (arg == "--profile") {
      profile = true;
    } else {
      std::cerr << "usage: bench_large_dag [--tasks N] [--family "
                   "epigenomics|cybershake|ligo|sipht|montage] [--profile] "
                   "[--json FILE]\n";
      return EXIT_FAILURE;
    }
  }
  if (tasks == 0) {
    std::cerr << "bench_large_dag: --tasks must be >= 1\n";
    return EXIT_FAILURE;
  }

  const dag::science::Family family = dag::science::family_by_name(family_name);
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::ExperimentRunner runner(platform);
  const std::vector<scheduling::Strategy> strategies =
      scheduling::paper_strategies();

  const auto build = [&](std::size_t target) {
    return dag::science::scaled(family, target);
  };
  const auto timed_run_all = [&](const dag::Workflow& wf) {
    const auto start = Clock::now();
    const auto results =
        runner.run_all(wf, workload::ScenarioKind::pareto,
                       exp::ParallelConfig::serial());
    const double ms = ms_since(start);
    return std::pair(results.size(), ms);
  };

  if (!json_path.empty()) {
    const dag::Workflow wf = build(tasks);
    (void)timed_run_all(wf);  // warm-up: fault in code + allocator pools
    constexpr int kRepeats = 5;
    std::vector<double> samples;
    samples.reserve(kRepeats);
    for (int r = 0; r < kRepeats; ++r) samples.push_back(timed_run_all(wf).second);
    const double median = cloudwf::bench::median(samples);

    const double calibration = cloudwf::bench::calibration_ms();

    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "FAIL: cannot write " << json_path << '\n';
      return EXIT_FAILURE;
    }
    out << "{\n"
        << "  \"benchmark\": \"bench_large_dag\",\n"
        << "  \"workflow\": \"" << wf.name() << "\",\n"
        << "  \"scenario\": \"pareto\",\n"
        << "  \"strategies\": " << strategies.size() << ",\n"
        << "  \"tasks\": " << wf.task_count() << ",\n"
        << "  \"edges\": " << wf.edge_count() << ",\n"
        << "  \"seeds\": 1,\n"
        << "  \"repeats\": " << kRepeats << ",\n"
        << "  \"serial_ms\": [";
    for (std::size_t i = 0; i < samples.size(); ++i)
      out << (i ? ", " : "") << util::format_double(samples[i], 3);
    out << "],\n"
        << "  \"median_serial_ms\": " << util::format_double(median, 3) << ",\n"
        << "  \"calibration_ms\": " << util::format_double(calibration, 3) << "\n"
        << "}\n";
    std::cout << wf.name() << " @ " << wf.task_count() << " tasks: median "
              << util::format_double(median, 1) << " ms over " << kRepeats
              << " repeats -> " << json_path << '\n';
    return EXIT_SUCCESS;
  }

  const std::vector<std::size_t> sizes =
      profile ? std::vector<std::size_t>{1000, 2000, 5000, 10000}
              : std::vector<std::size_t>{tasks};

  for (const std::size_t target : sizes) {
    const dag::Workflow wf = build(target);
    std::cout << "=== " << wf.name() << " @ " << wf.task_count() << " tasks, "
              << wf.edge_count() << " edges, 19 strategies, pareto ===\n";

    const dag::Workflow materialized =
        runner.materialize(wf, workload::ScenarioKind::pareto);
    (void)materialized.structure();
    util::TextTable t({"strategy", "wall ms", "makespan s", "VMs"});
    double total_ms = 0;
    for (const scheduling::Strategy& s : strategies) {
      const auto start = Clock::now();
      const exp::RunResult r =
          runner.run_one(s, wf, workload::ScenarioKind::pareto);
      const double ms = ms_since(start);
      total_ms += ms;
      t.add_row({s.label, util::format_double(ms, 1),
                 util::format_double(r.metrics.makespan, 0),
                 std::to_string(r.metrics.vms_used)});
    }
    std::cout << t << "per-strategy total (incl. per-run reference): "
              << util::format_double(total_ms, 1) << " ms\n";

    const auto [count, sweep_ms] = timed_run_all(wf);
    std::cout << "run_all (" << count
              << " strategies, shared reference): " << util::format_double(sweep_ms, 1)
              << " ms\n\n";
  }
  return EXIT_SUCCESS;
}
