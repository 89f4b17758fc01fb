// Ablation tables for the design knobs DESIGN.md calls out, measured as
// makespan/cost/idle/VM deltas on the Pareto-scenario workflows:
//  - the BTU "NotExceed" rule (rent-on-growth) vs "Exceed" (reuse anyway);
//  - the dynamic schedulers' budget factors (CPA-Eager 2x, GAIN 4x);
//  - AllPar1LnSDyn's per-level budget vs plain AllPar1LnS;
//  - the reuse-target rule: the paper's largest-execution-time target
//    (StartParNotExceed) vs best-fit bin packing (BestFit, ours).
#include <iostream>
#include <stdexcept>
#include <string>

#include "dag/builders.hpp"
#include "exp/experiment.hpp"
#include "scheduling/cpa_eager.hpp"
#include "scheduling/custom_policy.hpp"
#include "scheduling/factory.hpp"
#include "scheduling/gain.hpp"
#include "sim/metrics.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace cloudwf;

dag::Workflow pareto_workflow(const dag::Workflow& base) {
  return workload::apply_scenario(base, workload::ScenarioConfig{});
}

dag::Workflow paper_workflow(const std::string& name) {
  for (const dag::Workflow& base : exp::paper_workflows())
    if (base.name() == name) return pareto_workflow(base);
  throw std::invalid_argument("bench_ablation: no paper workflow " + name);
}

util::TextTable metrics_table(const char* first_column) {
  return util::TextTable(
      {first_column, "makespan (s)", "cost", "idle (s)", "VMs"});
}

void add_row(util::TextTable& table, std::string name, const dag::Workflow& wf,
             const scheduling::Scheduler& scheduler) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const sim::ScheduleMetrics m =
      sim::compute_metrics(wf, scheduler.run(wf, platform), platform);
  table.add_row({std::move(name), util::format_double(m.makespan, 0),
                 m.total_cost.to_string(),
                 util::format_double(m.total_idle, 0),
                 std::to_string(m.vms_used)});
}

void add_label_row(util::TextTable& table, const std::string& workflow,
                   const char* label) {
  add_row(table, workflow + " " + label, paper_workflow(workflow),
          *scheduling::strategy_by_label(label).scheduler);
}

}  // namespace

int main() {
  std::cout << "=== Ablation 1: the BTU rule (NotExceed vs Exceed) ===\n\n";
  util::TextTable btu = metrics_table("workflow / strategy");
  for (const char* wf : {"montage", "cstem", "mapreduce", "sequential"}) {
    add_label_row(btu, wf, "AllParNotExceed-s");
    add_label_row(btu, wf, "AllParExceed-s");
  }
  std::cout << btu << '\n';

  std::cout << "=== Ablation 2: dynamic budget factors (montage) ===\n\n";
  const dag::Workflow montage = pareto_workflow(dag::builders::montage24());
  util::TextTable budget = metrics_table("scheduler / factor");
  for (int factor = 1; factor <= 8; ++factor)
    add_row(budget, "CPA-Eager " + std::to_string(factor), montage,
            scheduling::CpaEagerScheduler(static_cast<double>(factor)));
  for (int factor = 1; factor <= 8; ++factor)
    add_row(budget, "GAIN " + std::to_string(factor), montage,
            scheduling::GainScheduler(static_cast<double>(factor)));
  std::cout << budget << '\n';

  std::cout << "=== Ablation 3: AllPar1LnS vs AllPar1LnSDyn ===\n\n";
  util::TextTable lns = metrics_table("workflow / strategy");
  for (const char* wf : {"montage", "mapreduce"}) {
    add_label_row(lns, wf, "AllPar1LnS");
    add_label_row(lns, wf, "AllPar1LnSDyn");
  }
  std::cout << lns << '\n';

  std::cout << "=== Ablation 4: reuse target (largest execution time vs "
               "best fit) ===\n\n";
  util::TextTable reuse = metrics_table("workflow / rule");
  for (const char* wf : {"montage", "cstem"}) {
    add_label_row(reuse, wf, "StartParNotExceed-s");
    add_row(reuse, std::string(wf) + " BestFit", paper_workflow(wf),
            *scheduling::best_fit_strategy(cloud::InstanceSize::small)
                 .scheduler);
  }
  std::cout << reuse << '\n';
  return 0;
}
