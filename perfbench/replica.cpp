#include "replica.hpp"

#include "sim/validator.hpp"

namespace perfbench {

namespace sched = cloudwf::scheduling;
namespace sim = cloudwf::sim;

Layers::Layers(Trace& t)
    : trace(t),
      parse(t.name("svc.http.parse")),
      decode(t.name("svc.protocol.decode")),
      resolve(t.name("svc.handlers.resolve")),
      grid(t.name("exp.grid")),
      generate(t.name("dag.generate")),
      materialize(t.name("exp.materialize")),
      structure(t.name("dag.structure")),
      reference(t.name("exp.reference")),
      validate(t.name("sim.validate")),
      metrics(t.name("sim.metrics")),
      rows(t.name("exp.rows")),
      encode(t.name("svc.encode")) {
  for (const std::string& label : sched::paper_strategy_labels())
    scheduling.emplace(label, t.name("scheduling." + label));
}

Prepared replica_prepare(const Layers& layers,
                         const cloudwf::cloud::Platform& platform,
                         const cloudwf::dag::Workflow& structure,
                         cloudwf::workload::ScenarioKind kind,
                         std::uint64_t seed) {
  Prepared p = [&] {
    const Trace::Scope s(layers.trace, layers.materialize);
    cloudwf::workload::ScenarioConfig cfg;
    cfg.seed = seed;
    const cloudwf::exp::ExperimentRunner runner(
        platform, cfg, cloudwf::exp::ParallelConfig::serial());
    return Prepared{runner.materialize(structure, kind),
                    runner.scenario_platform(kind), {}};
  }();
  {
    const Trace::Scope s(layers.trace, layers.structure);
    (void)p.materialized.structure();
  }
  const Trace::Scope s(layers.trace, layers.reference);
  const sched::Strategy ref = sched::reference_strategy();
  const sim::Schedule schedule = ref.scheduler->run(p.materialized, p.env);
  p.reference = sim::compute_metrics(p.materialized, schedule, p.env);
  return p;
}

cloudwf::exp::RunResult replica_cell(const Layers& layers,
                                     const sched::Strategy& strategy,
                                     const Prepared& prepared,
                                     const std::string& workflow,
                                     cloudwf::workload::ScenarioKind kind) {
  const sim::Schedule schedule = [&] {
    const Trace::Scope s(layers.trace, layers.scheduling.at(strategy.label));
    return strategy.scheduler->run(prepared.materialized, prepared.env);
  }();
  {
    const Trace::Scope s(layers.trace, layers.validate);
    sim::validate_or_throw(prepared.materialized, schedule, prepared.env);
  }
  const Trace::Scope s(layers.trace, layers.metrics);
  cloudwf::exp::RunResult r;
  r.strategy = strategy.label;
  r.workflow = workflow;
  r.scenario = kind;
  r.metrics = sim::compute_metrics(prepared.materialized, schedule,
                                   prepared.env);
  r.relative = sim::relative_to_reference(r.metrics, prepared.reference);
  return r;
}

}  // namespace perfbench
