// Extension bench quantifying two of the paper's Sect. V remarks:
//  (1) co-rent — "their best use could be in a co-rent scenario where idle
//      time is leased to other users and the user is partially reimbursed":
//      idle BTU-time resold at a spot-price fraction, per strategy;
//  (2) energy — "in an energy aware context their negative impact will be
//      even more obvious since unused VMs consume energy for no intended
//      purpose": busy/idle energy split per strategy.
// Plus the related-work baselines (RoundRobin, LeastLoad, PCH, SHEFT)
// against the paper's portfolio on every workflow.
#include <iostream>

#include "cloud/energy.hpp"
#include "exp/corent.hpp"
#include "exp/multicore.hpp"
#include "exp/report.hpp"
#include "exp/spot_study.hpp"
#include "scheduling/factory.hpp"
#include "util/strings.hpp"

int main() {
  using namespace cloudwf;
  const exp::ExperimentRunner runner;

  for (const dag::Workflow& structure : exp::paper_workflows()) {
    const dag::Workflow wf =
        runner.materialize(structure, workload::ScenarioKind::pareto);

    std::cout << "=== " << wf.name()
              << ": co-rent economics (spot at 35% of on-demand, 80% "
                 "occupancy) ===\n\n";
    std::cout << exp::corent_table(exp::corent_study(runner, structure)) << '\n';

    std::cout << "=== " << wf.name() << ": energy split per strategy ===\n\n";
    util::TextTable energy(
        {"strategy", "busy kWh", "idle kWh", "total kWh", "idle share"});
    for (const scheduling::Strategy& s : scheduling::paper_strategies()) {
      const sim::Schedule schedule = s.scheduler->run(wf, runner.platform());
      const cloud::EnergyMetrics e = cloud::compute_energy(schedule.pool());
      energy.add_row({s.label, util::format_double(e.busy_joules / 3.6e6, 2),
                      util::format_double(e.idle_joules / 3.6e6, 2),
                      util::format_double(e.total_kwh(), 2),
                      util::format_double(100.0 * e.idle_share, 1) + "%"});
    }
    std::cout << energy << '\n';
  }

  std::cout << "=== Spot-market execution (bid 50% of on-demand, montage) "
               "===\n\n";
  std::cout << exp::spot_study_table(
                   exp::spot_study(runner, exp::paper_workflows()[0]))
            << '\n';

  std::cout << "=== Multicore packing claim (Sect. III-A): AllParExceed-s "
               "re-billed on multicore machines ===\n\n";
  std::cout << exp::multicore_claim_table(runner) << '\n';

  std::cout << "=== Related-work baselines vs the paper portfolio (Pareto) "
               "===\n\n";
  for (const dag::Workflow& structure : exp::paper_workflows()) {
    std::vector<exp::RunResult> results;
    for (const scheduling::Strategy& s : scheduling::baseline_strategies())
      results.push_back(
          runner.run_one(s, structure, workload::ScenarioKind::pareto));
    std::cout << "-- " << structure.name() << " --\n"
              << exp::results_table(results) << '\n';
  }
  return 0;
}
