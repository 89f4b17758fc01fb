// Extension bench: the data-intensive regime the paper discusses but does
// not plot — the same Pareto runtimes with multi-GB Pareto data on every
// edge, so transfers rival computation. Sect. III-A's locality observation
// becomes measurable: shipping data between VMs dominates, and the
// clustering/reuse strategies overturn the CPU-intensive ranking.
#include <iostream>

#include "adaptive/advisor.hpp"
#include "exp/pareto_front.hpp"
#include "exp/report.hpp"
#include "scheduling/factory.hpp"

int main() {
  using namespace cloudwf;
  const exp::ExperimentRunner runner;

  for (const dag::Workflow& structure : exp::paper_workflows()) {
    std::cout << "=== " << structure.name()
              << ": data-intensive scenario (multi-GB edges) ===\n\n";

    std::vector<exp::RunResult> results =
        runner.run_all(structure, workload::ScenarioKind::data_intensive);
    for (const scheduling::Strategy& s : scheduling::baseline_strategies()) {
      // PCH is the locality specialist; include the whole baseline set.
      results.push_back(
          runner.run_one(s, structure, workload::ScenarioKind::data_intensive));
    }
    std::cout << exp::results_table(results) << '\n';

    std::cout << "(makespan, cost) front: ";
    bool first = true;
    for (const exp::FrontPoint& p :
         exp::undominated(exp::pareto_front(results))) {
      std::cout << (first ? "" : " -> ") << p.strategy;
      first = false;
    }

    const dag::Workflow wf =
        runner.materialize(structure, workload::ScenarioKind::data_intensive);
    const adaptive::WorkflowFeatures f = adaptive::compute_features(wf);
    std::cout << "\nadvisor (CCR " << f.ccr << "): savings="
              << adaptive::advise(f, adaptive::Objective::savings).strategy_label
              << " gain="
              << adaptive::advise(f, adaptive::Objective::gain).strategy_label
              << " balanced="
              << adaptive::advise(f, adaptive::Objective::balanced).strategy_label
              << "\n\n";
  }
  return 0;
}
