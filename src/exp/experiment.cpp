#include "exp/experiment.hpp"

#include "dag/builders.hpp"
#include "dag/science.hpp"
#include "exp/scenario_env.hpp"
#include "obs/trace.hpp"
#include "sim/validator.hpp"

namespace cloudwf::exp {

namespace {

constexpr NamedWorkflow kNamedWorkflows[] = {
    {"montage", [] { return dag::builders::montage24(); }},
    {"cstem", [] { return dag::builders::cstem(); }},
    {"mapreduce", [] { return dag::builders::map_reduce(); }},
    {"sequential", [] { return dag::builders::sequential_chain(); }},
    {"epigenomics", [] { return dag::science::epigenomics(); }},
    {"cybershake", [] { return dag::science::cybershake(); }},
    {"ligo", [] { return dag::science::ligo(); }},
    {"sipht", [] { return dag::science::sipht(); }},
};

}  // namespace

std::span<const NamedWorkflow> named_workflows() noexcept {
  return kNamedWorkflows;
}

const NamedWorkflow* find_named_workflow(std::string_view name) noexcept {
  for (const NamedWorkflow& w : kNamedWorkflows)
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<dag::Workflow> paper_workflows() {
  std::vector<dag::Workflow> out;
  for (const NamedWorkflow& w : named_workflows().first(4))
    out.push_back(w.build());
  return out;
}

ExperimentRunner::ExperimentRunner(cloud::Platform platform,
                                   workload::ScenarioConfig base_config,
                                   ParallelConfig parallel)
    : platform_(std::move(platform)),
      base_config_(base_config),
      parallel_(parallel) {}

dag::Workflow ExperimentRunner::materialize(const dag::Workflow& structure,
                                            workload::ScenarioKind kind) const {
  workload::ScenarioConfig cfg = base_config_;
  cfg.kind = kind;
  return workload::apply_scenario(structure, cfg);
}

cloud::Platform ExperimentRunner::scenario_platform(
    workload::ScenarioKind kind) const {
  workload::ScenarioConfig cfg = base_config_;
  cfg.kind = kind;
  return exp::scenario_platform(platform_, cfg);
}

sim::ScheduleMetrics ExperimentRunner::reference_metrics(
    const dag::Workflow& materialized, const cloud::Platform& platform) const {
  const scheduling::Strategy ref = scheduling::reference_strategy();
  const sim::Schedule schedule = ref.scheduler->run(materialized, platform);
  return sim::compute_metrics(materialized, schedule, platform);
}

RunResult ExperimentRunner::run_one_on(
    const scheduling::Strategy& strategy, const dag::Workflow& materialized,
    const std::string& workflow_name, workload::ScenarioKind kind,
    const cloud::Platform& platform,
    const sim::ScheduleMetrics& reference) const {
  obs::PhaseScope phase("run: " + strategy.label);
  const sim::Schedule schedule = strategy.scheduler->run(materialized, platform);
  sim::validate_or_throw(materialized, schedule, platform);

  RunResult r;
  r.strategy = strategy.label;
  r.workflow = workflow_name;
  r.scenario = kind;
  r.metrics = sim::compute_metrics(materialized, schedule, platform);
  r.relative = sim::relative_to_reference(r.metrics, reference);
  return r;
}

RunResult ExperimentRunner::run_one(const scheduling::Strategy& strategy,
                                    const dag::Workflow& structure,
                                    workload::ScenarioKind kind) const {
  const dag::Workflow materialized = materialize(structure, kind);
  const cloud::Platform env = scenario_platform(kind);
  return run_one_on(strategy, materialized, structure.name(), kind, env,
                    reference_metrics(materialized, env));
}

std::vector<RunResult> ExperimentRunner::run_all(const dag::Workflow& structure,
                                                 workload::ScenarioKind kind) const {
  return run_all(structure, kind, parallel_);
}

std::vector<RunResult> ExperimentRunner::run_all(
    const dag::Workflow& structure, workload::ScenarioKind kind,
    const ParallelConfig& parallel) const {
  return run_many(scheduling::paper_strategies(), structure, kind, parallel);
}

std::vector<RunResult> ExperimentRunner::run_many(
    const std::vector<scheduling::Strategy>& strategies,
    const dag::Workflow& structure, workload::ScenarioKind kind,
    const ParallelConfig& parallel) const {
  // Flat-core hot loop: materialize once, pre-build the structure cache all
  // jobs share and run the OneVMperTask-s reference once (the old path
  // recomputed it inside every one of the 19 jobs). Each job is then a pure
  // function of its strategy — schedulers are stateless const objects — and
  // parallel_map returns results in the given order, so the output is
  // bit-identical to the serial loop for any worker count.
  const dag::Workflow materialized = materialize(structure, kind);
  (void)materialized.structure();
  const cloud::Platform env = scenario_platform(kind);
  const sim::ScheduleMetrics reference = [&] {
    obs::PhaseScope phase("experiment: reference");
    return reference_metrics(materialized, env);
  }();

  return parallel_map(strategies.size(), parallel, [&](std::size_t i) {
    return run_one_on(strategies[i], materialized, structure.name(), kind, env,
                      reference);
  });
}

std::vector<RunResult> ExperimentRunner::run_grid() const {
  std::vector<RunResult> out;
  for (const dag::Workflow& wf : paper_workflows())
    for (workload::ScenarioKind kind : workload::kAllScenarios)
      for (RunResult& r : run_all(wf, kind, ParallelConfig::serial()))
        out.push_back(std::move(r));
  return out;
}

std::vector<RunResult> ExperimentRunner::run_grid_parallel() const {
  // One job per (workflow, scenario) cell, evaluated on the engine; cells
  // stay serial inside so the pool is not oversubscribed by nested jobs.
  const std::vector<dag::Workflow> workflows = paper_workflows();
  const std::size_t scenarios = workload::kAllScenarios.size();
  const auto cells = parallel_map(
      workflows.size() * scenarios, parallel_, [&](std::size_t c) {
        return run_all(workflows[c / scenarios],
                       workload::kAllScenarios[c % scenarios],
                       ParallelConfig::serial());
      });
  std::vector<RunResult> out;
  for (const auto& cell : cells)
    for (const RunResult& r : cell) out.push_back(r);
  return out;
}

}  // namespace cloudwf::exp
