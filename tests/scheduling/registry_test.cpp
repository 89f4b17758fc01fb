// Label parity across every entry point that resolves a strategy label:
// the registry itself (strategy_by_label, which `cloudwf run` calls), the
// service's admission check and the sweep grid. The CLI half of the pin
// (`cloudwf list` against a golden copy, `cloudwf run` on every label) is
// tests/tools/cli_strategy_labels_test.sh.
#include "scheduling/factory.hpp"

#include <gtest/gtest.h>

#include <set>

#include "exp/sweep_grid.hpp"
#include "svc/handlers.hpp"
#include "svc/protocol.hpp"

namespace cloudwf::scheduling {
namespace {

constexpr const char* kProvisionings[] = {"OneVMperTask", "StartParNotExceed",
                                          "StartParExceed", "AllParExceed",
                                          "AllParNotExceed"};

/// Every label the registry answers: its canonical labels plus the long
/// size aliases of the homogeneous series.
std::vector<std::string> every_label() {
  std::vector<std::string> labels;
  for (const StrategyEntry& e : strategy_registry())
    labels.push_back(e.strategy.label);
  for (const char* prov : kProvisionings)
    for (const char* size : {"small", "medium", "large", "xlarge"})
      labels.push_back(std::string(prov) + "-" + size);
  return labels;
}

exp::SweepGridSpec one_label_grid(const std::string& label) {
  exp::SweepGridSpec grid;
  grid.workflows = {"sequential"};
  grid.scenarios = {workload::ScenarioKind::pareto};
  grid.strategies = {label};
  return grid;
}

const std::vector<std::string> kUnknown = {
    "", "NotAStrategy-s", "OneVMperTask", "OneVMperTask-q", "PCH-small",
    "cpa-eager", "CPA-Eager ", "OneVMperTask-S", "HetHEFT"};

TEST(Registry, FamiliesAndLegend) {
  std::size_t counts[3] = {0, 0, 0};
  std::size_t legend = 0;
  for (const StrategyEntry& e : strategy_registry()) {
    ++counts[static_cast<int>(e.family)];
    if (e.in_legend) ++legend;
    EXPECT_EQ(e.size.has_value(), e.family == StrategyFamily::homogeneous)
        << e.strategy.label;
    if (e.family == StrategyFamily::baseline) {
      EXPECT_FALSE(e.in_legend) << e.strategy.label;
    }
  }
  EXPECT_EQ(counts[static_cast<int>(StrategyFamily::homogeneous)], 20u);
  EXPECT_EQ(counts[static_cast<int>(StrategyFamily::dynamic)], 4u);
  EXPECT_EQ(counts[static_cast<int>(StrategyFamily::baseline)], 18u);
  EXPECT_EQ(legend, 19u);

  std::set<std::string> labels;
  for (const StrategyEntry& e : strategy_registry())
    EXPECT_TRUE(labels.insert(e.strategy.label).second) << e.strategy.label;
}

TEST(Registry, ViewsFollowTheTable) {
  std::vector<std::string> legend;
  std::vector<std::string> baselines;
  for (const StrategyEntry& e : strategy_registry()) {
    if (e.in_legend) legend.push_back(e.strategy.label);
    if (e.family == StrategyFamily::baseline)
      baselines.push_back(e.strategy.label);
  }
  EXPECT_EQ(paper_strategy_labels(), legend);
  std::vector<std::string> from_paper;
  for (const Strategy& s : paper_strategies()) from_paper.push_back(s.label);
  EXPECT_EQ(from_paper, legend);
  std::vector<std::string> from_baselines;
  for (const Strategy& s : baseline_strategies())
    from_baselines.push_back(s.label);
  EXPECT_EQ(from_baselines, baselines);
}

TEST(Registry, StrategyByLabelAcceptsEveryLabelAndAlias) {
  for (const std::string& label : every_label()) {
    const StrategyEntry* e = find_strategy(label);
    ASSERT_NE(e, nullptr) << label;
    const Strategy s = strategy_by_label(label);
    EXPECT_EQ(s.scheduler, e->strategy.scheduler) << label;  // the shared one
    EXPECT_EQ(s.label, e->strategy.label);
  }
  EXPECT_EQ(strategy_by_label("OneVMperTask-small").label, "OneVMperTask-s");
  EXPECT_EQ(strategy_by_label("AllParExceed-xlarge").label, "AllParExceed-xl");
  EXPECT_EQ(strategy_by_label("StartParExceed-medium").scheduler->name(),
            "HEFT+StartParExceed-m");
}

TEST(Registry, ServiceAcceptsEveryLabelAndAlias) {
  for (const std::string& label : every_label())
    EXPECT_NO_THROW(svc::validate_strategy_label(label)) << label;
}

TEST(Registry, GridAcceptsExactlyTheNonBaselines) {
  for (const std::string& label : every_label()) {
    const bool baseline =
        find_strategy(label)->family == StrategyFamily::baseline;
    if (baseline) {
      EXPECT_THROW(exp::validate_grid(one_label_grid(label)),
                   std::invalid_argument)
          << label;
    } else {
      EXPECT_NO_THROW(exp::validate_grid(one_label_grid(label))) << label;
    }
  }
}

TEST(Registry, UnknownLabelsRejectedEverywhere) {
  for (const std::string& label : kUnknown) {
    EXPECT_EQ(find_strategy(label), nullptr) << label;
    EXPECT_THROW((void)strategy_by_label(label), std::invalid_argument)
        << label;
    EXPECT_THROW(svc::validate_strategy_label(label), svc::BadRequest)
        << label;
    EXPECT_THROW(exp::validate_grid(one_label_grid(label)),
                 std::invalid_argument)
        << label;
  }
}

TEST(Registry, MakeBuildsAFreshInstance) {
  for (const StrategyEntry& e : strategy_registry()) {
    const std::shared_ptr<const Scheduler> fresh = e.make();
    ASSERT_NE(fresh, nullptr) << e.strategy.label;
    EXPECT_NE(fresh, e.strategy.scheduler) << e.strategy.label;
    EXPECT_EQ(fresh->name(), e.strategy.scheduler->name());
  }
}

}  // namespace
}  // namespace cloudwf::scheduling
