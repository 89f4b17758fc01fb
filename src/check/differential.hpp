// Randomized differential engine: the flat-core fast path (shared structure
// cache, incremental VM reuse index, placement-context memos — PR 3) versus a
// cache-free naive reference build, on random DAGs x random scenarios, for
// all 19 paper strategies — with the schedule-invariant oracle run on every
// schedule either side produces.
//
// The reference side rebuilds the materialized workflow task-by-task (cold
// StructureCache, no shared slot), constructs a fresh scheduler per strategy
// with its registry entry's `make` (never the shared instance), and runs
// with VmPool::set_index_verification(true) so the incremental reuse index
// is cross-checked against a fresh sort on every query. Agreement is
// bitwise: every double and every integer-micro Money amount of the two
// ScheduleMetrics must be identical, as must the gain/loss percentages
// versus the per-case reference strategy.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::check {

struct DifferentialConfig {
  /// Number of random (DAG, scenario, seed) cases.
  std::size_t cases = 50;

  /// Master seed; case i derives its DAG shape, scenario kind and scenario
  /// seed from splitmix streams of (seed, i) — same seed, same cases.
  std::uint64_t seed = 0x0d1fCA5E;

  /// Workers for the fast path's run_all (the naive side is always serial).
  /// 0 = hardware concurrency.
  std::size_t fast_path_threads = 1;

  /// Fraction of cases drawn as Pegasus-family science shapes (epigenomics /
  /// cybershake / ligo / sipht, scaled to 50-500 tasks via
  /// dag::science::scaled) instead of random layered DAGs. Science shapes
  /// exercise the wide-level and deep-chain regimes the small layered
  /// generator cannot reach.
  double science_fraction = 0.25;

  /// If > 0, case 0 is a fixed science-family instance scaled to at least
  /// this many tasks (family still drawn from `seed`). All 19 strategies run
  /// on both sides with oracle + bitwise metric comparison, same as any
  /// other case — this is the large-DAG differential gate.
  std::size_t large_case_tasks = 0;
};

/// One disagreement between the fast path and the naive reference, or an
/// oracle violation on either side. `side` is "fast", "naive" or "both".
struct Divergence {
  std::size_t case_index = 0;
  std::string strategy;
  std::string side;
  std::string kind;  ///< "oracle" | "metrics" | "relative"
  std::string detail;

  [[nodiscard]] util::Json to_json() const;
};

/// Parameters of one generated case — enough to reproduce it exactly.
struct CaseInfo {
  std::size_t index = 0;
  std::uint64_t dag_seed = 0;
  std::uint64_t scenario_seed = 0;
  workload::ScenarioKind scenario = workload::ScenarioKind::pareto;
  std::size_t tasks = 0;
  std::size_t edges = 0;
};

struct DifferentialResult {
  std::vector<CaseInfo> cases;
  std::size_t schedules_checked = 0;  ///< strategies x cases x 2 sides
  std::vector<Divergence> divergences;

  [[nodiscard]] bool ok() const noexcept { return divergences.empty(); }
  [[nodiscard]] util::Json to_json() const;
};

/// Runs the full differential sweep. Deterministic in `config`; safe to run
/// concurrently with other work except that it toggles the global VM-index
/// verification flag for the duration of the naive runs.
/// `progress` (optional) is invoked after each case with (done, total).
[[nodiscard]] DifferentialResult run_differential(
    const DifferentialConfig& config,
    const std::function<void(std::size_t, std::size_t)>& progress = {});

}  // namespace cloudwf::check
