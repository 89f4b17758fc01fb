// Fig. 4 — makespan gain vs. cost loss scatter, one panel per workflow.
// Every strategy contributes one point per scenario; the reference
// (OneVMperTask-s) sits at the origin and the "target square" is
// gain in [0, 100], loss in [-100, 0] (both savings and gain).
#pragma once

#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "util/table.hpp"

namespace cloudwf::exp {

struct Fig4Point {
  std::string strategy;
  workload::ScenarioKind scenario = workload::ScenarioKind::pareto;
  double gain_pct = 0;
  double loss_pct = 0;

  /// In the paper's target square: savings and gain at once.
  [[nodiscard]] bool in_target_square() const noexcept {
    return gain_pct >= 0 && loss_pct <= 0;
  }
};

struct Fig4Panel {
  std::string workflow;
  std::vector<Fig4Point> points;
};

/// Runs all strategies x scenarios for one workflow structure.
[[nodiscard]] Fig4Panel fig4_panel(const ExperimentRunner& runner,
                                   const dag::Workflow& structure);

/// Human-readable table of one panel ("% gain", "% $ loss" like the plot axes).
[[nodiscard]] util::TextTable fig4_table(const Fig4Panel& panel);

/// gnuplot-ready data block: one "x y label scenario" row per point.
[[nodiscard]] std::string fig4_gnuplot(const Fig4Panel& panel);

}  // namespace cloudwf::exp
