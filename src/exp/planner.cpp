#include "exp/planner.hpp"

#include <algorithm>

#include "scheduling/factory.hpp"
#include "util/strings.hpp"

namespace cloudwf::exp {

namespace {
bool meets(const RunResult& r, const PlanConstraints& c) {
  if (c.budget && r.metrics.total_cost > *c.budget) return false;
  if (c.deadline && util::time_gt(r.metrics.makespan, *c.deadline)) return false;
  return true;
}
}  // namespace

PlanOutcome plan(const ExperimentRunner& runner, const dag::Workflow& structure,
                 const PlanConstraints& constraints,
                 workload::ScenarioKind scenario) {
  PlanOutcome outcome;
  outcome.evaluated = runner.run_all(structure, scenario);
  if (constraints.include_baselines) {
    for (const scheduling::Strategy& s : scheduling::baseline_strategies())
      outcome.evaluated.push_back(runner.run_one(s, structure, scenario));
  }

  const RunResult* best = nullptr;
  const bool has_budget = constraints.budget.has_value();
  const bool has_deadline = constraints.deadline.has_value();

  if (!has_budget && !has_deadline) {
    // Balance objective: max min(gain, savings).
    for (const RunResult& r : outcome.evaluated) {
      const double balance =
          std::min(r.relative.gain_pct, r.relative.savings_pct());
      if (best == nullptr ||
          balance > std::min(best->relative.gain_pct,
                             best->relative.savings_pct()))
        best = &r;
    }
    outcome.feasible = best != nullptr;
  } else {
    for (const RunResult& r : outcome.evaluated) {
      if (!meets(r, constraints)) continue;
      if (best == nullptr) {
        best = &r;
        continue;
      }
      if (has_deadline) {
        // Cheapest meeting the deadline (tie: faster).
        if (r.metrics.total_cost < best->metrics.total_cost ||
            (r.metrics.total_cost == best->metrics.total_cost &&
             r.metrics.makespan < best->metrics.makespan))
          best = &r;
      } else {
        // Budget only: fastest within it (tie: cheaper).
        if (util::time_gt(best->metrics.makespan, r.metrics.makespan) ||
            (util::time_eq(best->metrics.makespan, r.metrics.makespan) &&
             r.metrics.total_cost < best->metrics.total_cost))
          best = &r;
      }
    }
    outcome.feasible = best != nullptr;
    if (best == nullptr) {
      // Infeasible: best-effort pick — closest to the binding constraint.
      for (const RunResult& r : outcome.evaluated) {
        if (best == nullptr) {
          best = &r;
          continue;
        }
        if (has_deadline) {
          if (r.metrics.makespan < best->metrics.makespan) best = &r;
        } else if (r.metrics.total_cost < best->metrics.total_cost) {
          best = &r;
        }
      }
    }
  }

  if (best != nullptr) {
    outcome.strategy = best->strategy;
    outcome.metrics = best->metrics;
  }
  return outcome;
}

util::TextTable plan_table(const PlanOutcome& outcome,
                           const PlanConstraints& constraints) {
  util::TextTable t({"strategy", "makespan (s)", "cost ($)", "status"});
  for (const RunResult& r : outcome.evaluated) {
    std::string status;
    if (r.strategy == outcome.strategy)
      status = outcome.feasible ? "CHOSEN" : "CHOSEN (best effort)";
    else if (!meets(r, constraints))
      status = "violates constraints";
    t.add_row({r.strategy, util::format_double(r.metrics.makespan, 1),
               util::format_double(r.metrics.total_cost.dollars(), 3), status});
  }
  return t;
}

}  // namespace cloudwf::exp
