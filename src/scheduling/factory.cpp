#include "scheduling/factory.hpp"

#include <array>
#include <stdexcept>
#include <unordered_map>

#include "scheduling/allpar1lns.hpp"
#include "scheduling/allpar1lns_dyn.hpp"
#include "scheduling/baselines.hpp"
#include "scheduling/bicpa.hpp"
#include "scheduling/cpa_eager.hpp"
#include "scheduling/elastic_strategy.hpp"
#include "scheduling/gain.hpp"
#include "scheduling/heft.hpp"
#include "scheduling/het_heft.hpp"
#include "scheduling/heuristics.hpp"
#include "scheduling/level_scheduler.hpp"
#include "scheduling/scs.hpp"

namespace cloudwf::scheduling {

namespace {
using provisioning::ProvisioningKind;
using cloud::InstanceSize;
using Maker = std::function<std::shared_ptr<const Scheduler>()>;

// VMs rented by the fixed-pool baselines (RoundRobin, LeastLoad, MinMin).
constexpr std::size_t kBaselinePoolSize = 4;

constexpr std::array<ProvisioningKind, 5> kLegendOrder = {
    ProvisioningKind::start_par_not_exceed, ProvisioningKind::start_par_exceed,
    ProvisioningKind::all_par_exceed, ProvisioningKind::all_par_not_exceed,
    ProvisioningKind::one_vm_per_task};

std::string sized(std::string_view base, InstanceSize size) {
  return std::string(base) + "-" + std::string(cloud::suffix_of(size));
}

struct Registry {
  struct LabelHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::vector<StrategyEntry> entries;
  // Labels and long size aliases -> position in `entries`.
  std::unordered_map<std::string, std::size_t, LabelHash, std::equal_to<>>
      index;

  void add(std::string label, StrategyFamily family, bool in_legend,
           Maker make, std::optional<InstanceSize> size = std::nullopt) {
    if (!index.emplace(label, entries.size()).second)
      throw std::logic_error("duplicate strategy label " + label);
    std::shared_ptr<const Scheduler> shared = make();
    entries.push_back({{std::move(label), std::move(shared)},
                       family,
                       in_legend,
                       size,
                       std::move(make)});
  }

  void homogeneous(ProvisioningKind kind, InstanceSize size, bool in_legend) {
    const std::string_view prov = provisioning::name_of(kind);
    const bool level = kind == ProvisioningKind::all_par_not_exceed ||
                       kind == ProvisioningKind::all_par_exceed;
    index.emplace(std::string(prov) + "-" + std::string(cloud::name_of(size)),
                  entries.size());
    add(sized(prov, size), StrategyFamily::homogeneous, in_legend,
        [kind, size, level]() -> std::shared_ptr<const Scheduler> {
          if (level) return std::make_shared<LevelScheduler>(kind, size);
          return std::make_shared<HeftScheduler>(kind, size);
        },
        size);
  }

  template <class S>
  void dynamic(std::string label) {
    add(std::move(label), StrategyFamily::dynamic, true,
        [] { return std::make_shared<S>(); });
  }

  template <class S, class... Args>
  void baseline(std::string label, Args... args) {
    add(std::move(label), StrategyFamily::baseline, false,
        [args...] { return std::make_shared<S>(args...); });
  }
};

Registry build_registry() {
  Registry r;
  // Fig. 4 legend: the five provisionings for -s, then -m, then -l...
  for (InstanceSize size :
       {InstanceSize::small, InstanceSize::medium, InstanceSize::large})
    for (ProvisioningKind kind : kLegendOrder) r.homogeneous(kind, size, true);
  // ...then the four dynamic algorithms.
  r.dynamic<CpaEagerScheduler>("CPA-Eager");
  r.dynamic<GainScheduler>("GAIN");
  r.dynamic<AllParOneLnSScheduler>("AllPar1LnS");
  r.dynamic<AllParOneLnSDynScheduler>("AllPar1LnSDyn");

  // Beyond the plots: the xlarge homogeneous series.
  for (ProvisioningKind kind : kLegendOrder)
    r.homogeneous(kind, InstanceSize::xlarge, false);

  // Related-work comparators.
  for (InstanceSize size :
       {InstanceSize::small, InstanceSize::medium, InstanceSize::large}) {
    r.baseline<RoundRobinScheduler>(sized("RoundRobin", size),
                                    kBaselinePoolSize, size);
    r.baseline<LeastLoadScheduler>(sized("LeastLoad", size), kBaselinePoolSize,
                                   size);
    r.baseline<PchScheduler>(sized("PCH", size), size);
  }
  r.baseline<SheftScheduler>("SHEFT");
  r.baseline<BiCpaScheduler>("biCPA-budget-s",
                             BiCpaScheduler::Objective::budget, 2.0);
  r.baseline<BiCpaScheduler>("biCPA-deadline-s",
                             BiCpaScheduler::Objective::deadline, 1.5);
  r.baseline<ScsScheduler>("SCS");
  r.baseline<ElasticScheduler>("Elastic-s");
  r.baseline<MinMinScheduler>("MinMin-s", MinMaxMode::min_min,
                              kBaselinePoolSize, InstanceSize::small);
  r.baseline<MinMinScheduler>("MaxMin-s", MinMaxMode::max_min,
                              kBaselinePoolSize, InstanceSize::small);
  r.baseline<CtcScheduler>("CTC");
  r.baseline<HeterogeneousHeftScheduler>(
      "HetHEFT[ssml]",
      std::vector<InstanceSize>{InstanceSize::small, InstanceSize::small,
                                InstanceSize::medium, InstanceSize::large});
  return r;
}

const Registry& registry() {
  static const Registry r = build_registry();
  return r;
}

std::vector<Strategy> strategies_where(bool (*keep)(const StrategyEntry&)) {
  std::vector<Strategy> out;
  for (const StrategyEntry& e : registry().entries)
    if (keep(e)) out.push_back(e.strategy);
  return out;
}
}  // namespace

const std::vector<StrategyEntry>& strategy_registry() {
  return registry().entries;
}

const StrategyEntry* find_strategy(std::string_view label) {
  const Registry& r = registry();
  const auto it = r.index.find(label);
  return it == r.index.end() ? nullptr : &r.entries[it->second];
}

Strategy strategy_by_label(std::string_view label) {
  if (const StrategyEntry* e = find_strategy(label)) return e->strategy;
  throw std::invalid_argument("strategy_by_label: unknown label '" +
                              std::string(label) + "'");
}

std::vector<Strategy> paper_strategies() {
  return strategies_where([](const StrategyEntry& e) { return e.in_legend; });
}

std::vector<std::string> paper_strategy_labels() {
  std::vector<std::string> labels;
  for (const StrategyEntry& e : registry().entries)
    if (e.in_legend) labels.push_back(e.strategy.label);
  return labels;
}

Strategy reference_strategy() { return strategy_by_label("OneVMperTask-s"); }

std::vector<Strategy> baseline_strategies() {
  return strategies_where([](const StrategyEntry& e) {
    return e.family == StrategyFamily::baseline;
  });
}

}  // namespace cloudwf::scheduling
