// The strategy registry: one immutable, label-indexed table of every
// strategy cloudwf can run. It holds three families:
//
//   homogeneous  {OneVMperTask, StartParNotExceed, StartParExceed}-{s,m,l,xl}
//                (HEFT) and {AllParExceed, AllParNotExceed}-{s,m,l,xl}
//                (level scheduling);
//   dynamic      CPA-Eager, GAIN, AllPar1LnS, AllPar1LnSDyn;
//   baseline     the related-work comparators (RoundRobin-s, PCH-m, SHEFT,
//                biCPA-*, SCS, Elastic-s, MinMin-s, CTC, HetHEFT[ssml], ...).
//
// The 19 entries of the paper's Fig. 4 legend are the homogeneous series on
// small, medium and large plus the four dynamic algorithms; xlarge is
// covered by Table II and the platform but not swept in the plots. Labels
// follow the plots: homogeneous series are named after their provisioning +
// instance suffix (HEFT is implied), the rest carry their algorithm name.
// Homogeneous labels also resolve under their long size name
// ("OneVMperTask-small" -> "OneVMperTask-s").
//
// Every entry owns one shared, immutable scheduler: schedulers are stateless
// const objects, so the same instance serves concurrent sweeps and service
// workers. Code that must not share state with the production path (the
// differential engine's naive side) builds a fresh instance with `make`.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scheduling/scheduler.hpp"

namespace cloudwf::scheduling {

struct Strategy {
  std::string label;  ///< registry label (the paper's, for its series)
  std::shared_ptr<const Scheduler> scheduler;
};

enum class StrategyFamily { homogeneous, dynamic, baseline };

struct StrategyEntry {
  Strategy strategy;  ///< canonical label + the shared instance
  StrategyFamily family = StrategyFamily::baseline;
  bool in_legend = false;  ///< one of the 19 Fig. 4 series
  std::optional<cloud::InstanceSize> size;  ///< homogeneous series only
  std::function<std::shared_ptr<const Scheduler>()> make;  ///< fresh instance
};

/// Every registered strategy: the Fig. 4 legend, then the xlarge
/// homogeneous series, then the baselines.
[[nodiscard]] const std::vector<StrategyEntry>& strategy_registry();

/// The entry for a registry label or long size alias; nullptr if unknown.
[[nodiscard]] const StrategyEntry* find_strategy(std::string_view label);

/// The registered strategy for a label or alias (e.g. "AllParExceed-m",
/// "CPA-Eager", "PCH-s"). Throws std::invalid_argument for unknown labels.
[[nodiscard]] Strategy strategy_by_label(std::string_view label);

/// All 19 paper strategies, in the legend order of Fig. 4.
[[nodiscard]] std::vector<Strategy> paper_strategies();

/// The labels of paper_strategies(), in legend order.
[[nodiscard]] std::vector<std::string> paper_strategy_labels();

/// The reference strategy of Fig. 4: HEFT + OneVMperTask on small instances
/// (label "OneVMperTask-s").
[[nodiscard]] Strategy reference_strategy();

/// The comparator strategies beyond the Fig. 4 legend, in registry order.
/// Pool-based baselines rent 4 VMs.
[[nodiscard]] std::vector<Strategy> baseline_strategies();

}  // namespace cloudwf::scheduling
