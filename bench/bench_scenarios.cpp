// Scenario-axis benchmark: the three environment/constraint scenarios the
// paper's grid never priced — cold-start provisioning delays, time-varying
// BTU prices, and the deadline/budget-constrained selection (classification
// plus the stochastic configuration search).
//
// Two modes:
//   bench_scenarios
//     Per-kind wall-clock table over the paper workflows (19 strategies
//     each), plus the constrained classification and a 60-iteration
//     stochastic search on montage.
//   bench_scenarios --json FILE
//     Times the whole unit median-of-5 and writes the BENCH_SCENARIOS.json
//     baseline tools/check_bench_regression.py gates CI on (sweep format:
//     median_serial_ms + splitmix calibration anchor).
#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/parallel.hpp"
#include "exp/pareto_front.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include "harness.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

constexpr std::array kScenarioKinds = {
    cloudwf::workload::ScenarioKind::cold_start,
    cloudwf::workload::ScenarioKind::variable_price,
    cloudwf::workload::ScenarioKind::constrained,
};

}  // namespace

int main(int argc, char** argv) {
  using namespace cloudwf;

  std::string json_path;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--json" && a + 1 < argc) {
      json_path = argv[++a];
    } else {
      std::cerr << "usage: bench_scenarios [--json FILE]\n";
      return EXIT_FAILURE;
    }
  }

  const exp::ExperimentRunner runner;
  const std::vector<dag::Workflow> workflows = exp::paper_workflows();

  // One benchmark unit: every paper workflow under every new scenario kind
  // at kSeeds workload seeds (full 19-strategy run_all on the
  // scenario-derived platform each time), then the constrained machinery on
  // montage — derive limits from the reference row, classify, and run a
  // 60-iteration stochastic configuration search.
  constexpr std::uint64_t kSeeds = 10;
  const auto timed_unit = [&] {
    const auto start = Clock::now();
    std::size_t rows = 0;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      workload::ScenarioConfig cfg;
      cfg.seed += seed;
      const exp::ExperimentRunner seeded(cloud::Platform::ec2(), cfg);
      for (const dag::Workflow& wf : workflows)
        for (const workload::ScenarioKind kind : kScenarioKinds)
          rows += seeded.run_all(wf, kind, exp::ParallelConfig::serial()).size();
    }

    constexpr workload::ScenarioKind kind = workload::ScenarioKind::constrained;
    const auto results =
        runner.run_all(workflows[0], kind, exp::ParallelConfig::serial());
    const exp::Constraints limits =
        exp::derive_constraints(results, exp::ConstraintSpec{});
    rows += exp::classify_constrained(results, limits).points.size();
    exp::SearchConfig search;
    search.iterations = 60;
    rows += exp::stochastic_search(runner.materialize(workflows[0], kind),
                                   runner.scenario_platform(kind), limits,
                                   search)
                .evaluated.size();
    return std::pair(rows, ms_since(start));
  };

  if (!json_path.empty()) {
    (void)timed_unit();  // warm-up: fault in code + allocator pools
    constexpr int kRepeats = 5;
    std::vector<double> samples;
    samples.reserve(kRepeats);
    std::size_t rows = 0;
    for (int r = 0; r < kRepeats; ++r) {
      const auto [n, ms] = timed_unit();
      rows = n;
      samples.push_back(ms);
    }
    const double median = cloudwf::bench::median(samples);

    const double calibration = cloudwf::bench::calibration_ms();

    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "FAIL: cannot write " << json_path << '\n';
      return EXIT_FAILURE;
    }
    out << "{\n"
        << "  \"benchmark\": \"bench_scenarios\",\n"
        << "  \"workflow\": \"paper-set\",\n"
        << "  \"scenarios\": [\"cold-start\", \"variable-price\", "
           "\"deadline-budget\"],\n"
        << "  \"workflows\": " << workflows.size() << ",\n"
        << "  \"strategies\": 19,\n"
        << "  \"seeds\": " << kSeeds << ",\n"
        << "  \"search_iterations\": 60,\n"
        << "  \"rows\": " << rows << ",\n"
        << "  \"repeats\": " << kRepeats << ",\n"
        << "  \"serial_ms\": [";
    for (std::size_t i = 0; i < samples.size(); ++i)
      out << (i ? ", " : "") << util::format_double(samples[i], 3);
    out << "],\n"
        << "  \"median_serial_ms\": " << util::format_double(median, 3) << ",\n"
        << "  \"calibration_ms\": " << util::format_double(calibration, 3) << "\n"
        << "}\n";
    std::cout << "scenario unit (" << rows << " rows): median "
              << util::format_double(median, 1) << " ms over " << kRepeats
              << " repeats -> " << json_path << '\n';
    return EXIT_SUCCESS;
  }

  for (const workload::ScenarioKind kind : kScenarioKinds) {
    std::cout << "=== " << workload::name_of(kind)
              << " (19 strategies per workflow) ===\n";
    util::TextTable t({"workflow", "wall ms", "best makespan s", "best cost $"});
    for (const dag::Workflow& wf : workflows) {
      const auto start = Clock::now();
      const auto results =
          runner.run_all(wf, kind, exp::ParallelConfig::serial());
      const double ms = ms_since(start);
      const auto best = std::min_element(
          results.begin(), results.end(), [](const auto& a, const auto& b) {
            return a.metrics.makespan < b.metrics.makespan;
          });
      t.add_row({wf.name(), util::format_double(ms, 1),
                 util::format_double(best->metrics.makespan, 0),
                 best->metrics.total_cost.to_string()});
    }
    std::cout << t << '\n';
  }

  constexpr workload::ScenarioKind kind = workload::ScenarioKind::constrained;
  const auto results =
      runner.run_all(workflows[0], kind, exp::ParallelConfig::serial());
  const exp::Constraints limits =
      exp::derive_constraints(results, exp::ConstraintSpec{});
  const exp::ConstrainedReport report =
      exp::classify_constrained(results, limits);
  std::cout << "constrained montage: " << report.feasible_count() << "/"
            << report.points.size() << " strategies feasible (deadline "
            << util::format_double(limits.deadline, 0) << " s, budget "
            << limits.budget.to_string() << ")\n";

  exp::SearchConfig search;
  search.iterations = 60;
  const auto t0 = Clock::now();
  const exp::SearchResult found =
      exp::stochastic_search(runner.materialize(workflows[0], kind),
                             runner.scenario_platform(kind), limits, search);
  std::cout << "stochastic search: " << found.evaluated.size()
            << " distinct configs in " << util::format_double(ms_since(t0), 1)
            << " ms\n";
  return EXIT_SUCCESS;
}
