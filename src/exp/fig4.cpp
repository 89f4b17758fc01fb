#include "exp/fig4.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace cloudwf::exp {

Fig4Panel fig4_panel(const ExperimentRunner& runner, const dag::Workflow& structure) {
  Fig4Panel panel;
  panel.workflow = structure.name();
  for (workload::ScenarioKind kind : workload::kAllScenarios) {
    for (const RunResult& r : runner.run_all(structure, kind)) {
      panel.points.push_back(Fig4Point{r.strategy, kind, r.relative.gain_pct,
                                       r.relative.loss_pct});
    }
  }
  return panel;
}

util::TextTable fig4_table(const Fig4Panel& panel) {
  util::TextTable t({"strategy", "scenario", "% gain", "% $ loss", "target square"});
  for (const Fig4Point& p : panel.points) {
    t.add_row({p.strategy, std::string(workload::name_of(p.scenario)),
               util::format_double(p.gain_pct, 2), util::format_double(p.loss_pct, 2),
               p.in_target_square() ? "yes" : ""});
  }
  return t;
}

std::string fig4_gnuplot(const Fig4Panel& panel) {
  std::ostringstream os;
  os << "# Fig4 " << panel.workflow << ": gain_pct loss_pct strategy scenario\n";
  for (const Fig4Point& p : panel.points) {
    os << util::format_double(p.gain_pct, 4) << ' '
       << util::format_double(p.loss_pct, 4) << " \"" << p.strategy << "\" "
       << workload::name_of(p.scenario) << '\n';
  }
  return os.str();
}

}  // namespace cloudwf::exp
