// Experiment framework: runs strategy x workflow x scenario grids and
// produces the paper's relative metrics (gain% / loss% vs the
// OneVMperTask-small reference, idle times).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/platform.hpp"
#include "dag/workflow.hpp"
#include "exp/parallel.hpp"
#include "scheduling/factory.hpp"
#include "sim/metrics.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::exp {

/// The paper's four workflow structures (Fig. 2), in presentation order:
/// montage, cstem, mapreduce, sequential. Structure only — scenario works
/// and data sizes are applied per run.
[[nodiscard]] std::vector<dag::Workflow> paper_workflows();

/// A workflow every entry point (CLI, service, sweep grid) accepts by name.
struct NamedWorkflow {
  std::string_view name;
  dag::Workflow (*build)();
};

/// The eight named workflows: the four paper structures, then the default
/// Pegasus science workflows epigenomics, cybershake, ligo and sipht.
[[nodiscard]] std::span<const NamedWorkflow> named_workflows() noexcept;

/// The named workflow called `name`, or nullptr.
[[nodiscard]] const NamedWorkflow* find_named_workflow(
    std::string_view name) noexcept;

struct RunResult {
  std::string strategy;              ///< legend label
  std::string workflow;              ///< workflow name
  workload::ScenarioKind scenario = workload::ScenarioKind::pareto;
  sim::ScheduleMetrics metrics;
  sim::GainLoss relative;            ///< vs OneVMperTask-s on the same case
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(cloud::Platform platform = cloud::Platform::ec2(),
                            workload::ScenarioConfig base_config = {},
                            ParallelConfig parallel = {});

  [[nodiscard]] const cloud::Platform& platform() const noexcept {
    return platform_;
  }
  [[nodiscard]] const workload::ScenarioConfig& base_config() const noexcept {
    return base_config_;
  }
  [[nodiscard]] const ParallelConfig& parallel() const noexcept {
    return parallel_;
  }

  /// The scenario-applied workflow a run would use (exposed for tests and
  /// the validator cross-checks in the benches).
  [[nodiscard]] dag::Workflow materialize(const dag::Workflow& structure,
                                          workload::ScenarioKind kind) const;

  /// The platform a run under `kind` schedules against and is billed on:
  /// the runner's base platform plus the kind's environment extensions
  /// (cold-start delays, price schedule — see exp/scenario_env.hpp). Equal
  /// to platform() for every environment-free kind. Callers that schedule
  /// or compute metrics manually (CLI, benches) must use this, not
  /// platform(), so their numbers match run_one's.
  [[nodiscard]] cloud::Platform scenario_platform(
      workload::ScenarioKind kind) const;

  /// Runs one strategy; the reference metrics are recomputed for the case.
  [[nodiscard]] RunResult run_one(const scheduling::Strategy& strategy,
                                  const dag::Workflow& structure,
                                  workload::ScenarioKind kind) const;

  /// Runs all 19 paper strategies on one workflow under one scenario,
  /// evaluated on the runner's ParallelConfig worker pool. Result order is
  /// always legend order, and every result is bit-identical to the serial
  /// path regardless of worker count.
  [[nodiscard]] std::vector<RunResult> run_all(const dag::Workflow& structure,
                                               workload::ScenarioKind kind) const;

  /// run_all with an explicit worker count (overriding the runner's knob) —
  /// used by outer-level sweeps whose jobs must stay serial inside.
  [[nodiscard]] std::vector<RunResult> run_all(
      const dag::Workflow& structure, workload::ScenarioKind kind,
      const ParallelConfig& parallel) const;

  /// Runs an explicit strategy subset on one workflow under one scenario:
  /// materializes once, computes the OneVMperTask-s reference once, then
  /// evaluates the subset in the given order. run_all is run_many over all
  /// 19 paper strategies, so a subset's rows are bit-identical to the
  /// corresponding slice of a full run — the property distributed shards
  /// (exp/sweep_grid) rely on.
  [[nodiscard]] std::vector<RunResult> run_many(
      const std::vector<scheduling::Strategy>& strategies,
      const dag::Workflow& structure, workload::ScenarioKind kind,
      const ParallelConfig& parallel) const;

  /// Full grid: every paper workflow x every scenario x every strategy.
  [[nodiscard]] std::vector<RunResult> run_grid() const;

  /// run_grid with the (workflow, scenario) cells evaluated concurrently on
  /// the runner's worker pool. Identical results in identical order — a
  /// test asserts bitwise agreement with the serial path.
  [[nodiscard]] std::vector<RunResult> run_grid_parallel() const;

 private:
  [[nodiscard]] sim::ScheduleMetrics reference_metrics(
      const dag::Workflow& materialized, const cloud::Platform& platform) const;
  [[nodiscard]] RunResult run_one_on(const scheduling::Strategy& strategy,
                                     const dag::Workflow& materialized,
                                     const std::string& workflow_name,
                                     workload::ScenarioKind kind,
                                     const cloud::Platform& platform,
                                     const sim::ScheduleMetrics& reference) const;

  cloud::Platform platform_;
  workload::ScenarioConfig base_config_;
  ParallelConfig parallel_;
};

}  // namespace cloudwf::exp
