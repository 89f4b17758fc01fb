// The traced replica: the evaluation steps of ExperimentRunner::run_one /
// run_many, re-executed call by call through the library's public
// functions, one span per call. svc_bench.cpp and sweep_bench.cpp build
// their request and shard replicas from these pieces.
#pragma once

#include <string>
#include <unordered_map>

#include "cloud/platform.hpp"
#include "dag/workflow.hpp"
#include "exp/experiment.hpp"
#include "scheduling/factory.hpp"
#include "sim/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

/// Interned span names of every layer (see layer_names()) plus the
/// grouping spans.
struct Layers {
  explicit Layers(Trace& trace);

  Trace& trace;
  Trace::Id parse, decode, resolve, grid, generate, materialize, structure,
      reference, validate, metrics, rows, encode;
  std::unordered_map<std::string, Trace::Id> scheduling;  ///< by label
};

/// A materialized (workflow, scenario, seed) with its platform and
/// OneVMperTask-s reference metrics.
struct Prepared {
  cloudwf::dag::Workflow materialized;
  cloudwf::cloud::Platform env;
  cloudwf::sim::ScheduleMetrics reference;
};

/// exp.materialize (runner, materialize, scenario_platform), dag.structure
/// (the first structure() call) and exp.reference (reference schedule and
/// its metrics).
[[nodiscard]] Prepared replica_prepare(const Layers& layers,
                                       const cloudwf::cloud::Platform& platform,
                                       const cloudwf::dag::Workflow& structure,
                                       cloudwf::workload::ScenarioKind kind,
                                       std::uint64_t seed);

/// scheduling.<label>, sim.validate and sim.metrics for one strategy.
[[nodiscard]] cloudwf::exp::RunResult replica_cell(
    const Layers& layers, const cloudwf::scheduling::Strategy& strategy,
    const Prepared& prepared, const std::string& workflow,
    cloudwf::workload::ScenarioKind kind);

}  // namespace perfbench
