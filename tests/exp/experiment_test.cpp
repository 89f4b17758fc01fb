#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include "exp/report.hpp"
#include "scheduling/factory.hpp"

namespace cloudwf::exp {
namespace {

TEST(PaperWorkflows, FourInPresentationOrder) {
  const auto wfs = paper_workflows();
  ASSERT_EQ(wfs.size(), 4u);
  EXPECT_EQ(wfs[0].name(), "montage");
  EXPECT_EQ(wfs[1].name(), "cstem");
  EXPECT_EQ(wfs[2].name(), "mapreduce");
  EXPECT_EQ(wfs[3].name(), "sequential");
}

TEST(ExperimentRunner, ReferenceSitsAtOrigin) {
  const ExperimentRunner runner;
  const dag::Workflow montage = paper_workflows()[0];
  const RunResult ref = runner.run_one(scheduling::reference_strategy(), montage,
                                       workload::ScenarioKind::pareto);
  EXPECT_NEAR(ref.relative.gain_pct, 0.0, 1e-9);
  EXPECT_NEAR(ref.relative.loss_pct, 0.0, 1e-9);
}

TEST(ExperimentRunner, RunAllCoversAllStrategies) {
  const ExperimentRunner runner;
  const auto results = runner.run_all(paper_workflows()[1],  // cstem
                                      workload::ScenarioKind::best_case);
  EXPECT_EQ(results.size(), 19u);
  for (const RunResult& r : results) {
    EXPECT_EQ(r.workflow, "cstem");
    EXPECT_EQ(r.scenario, workload::ScenarioKind::best_case);
    EXPECT_GT(r.metrics.makespan, 0.0) << r.strategy;
    EXPECT_GT(r.metrics.total_cost, util::Money{}) << r.strategy;
  }
}

TEST(ExperimentRunner, MaterializeIsDeterministic) {
  const ExperimentRunner runner;
  const dag::Workflow a =
      runner.materialize(paper_workflows()[0], workload::ScenarioKind::pareto);
  const dag::Workflow b =
      runner.materialize(paper_workflows()[0], workload::ScenarioKind::pareto);
  for (const dag::Task& t : a.tasks())
    EXPECT_DOUBLE_EQ(t.work, b.task(t.id).work);
}

// The registry's family and size columns — the groupings the reports and
// the Table III/IV classifiers rely on.
const scheduling::StrategyEntry& entry(std::string_view label) {
  const scheduling::StrategyEntry* e = scheduling::find_strategy(label);
  if (!e) throw std::invalid_argument(std::string(label));
  return *e;
}

TEST(StrategySet, DynamicVsHomogeneousPartition) {
  using scheduling::StrategyFamily;
  EXPECT_EQ(entry("CPA-Eager").family, StrategyFamily::dynamic);
  EXPECT_EQ(entry("AllPar1LnSDyn").family, StrategyFamily::dynamic);
  EXPECT_EQ(entry("AllParExceed-m").family, StrategyFamily::homogeneous);
  EXPECT_EQ(entry("GAIN").family, StrategyFamily::dynamic);
  EXPECT_EQ(entry("PCH-s").family, StrategyFamily::baseline);

  std::size_t dynamic = 0;
  std::size_t homogeneous = 0;
  for (const std::string& label : scheduling::paper_strategy_labels()) {
    if (entry(label).family == StrategyFamily::dynamic) ++dynamic;
    if (entry(label).family == StrategyFamily::homogeneous) ++homogeneous;
  }
  EXPECT_EQ(dynamic, 4u);
  EXPECT_EQ(homogeneous, 15u);
}

TEST(StrategySet, SuffixAndProvisioningParts) {
  EXPECT_EQ(entry("AllParExceed-m").size, cloud::InstanceSize::medium);
  EXPECT_EQ(entry("OneVMperTask-xl").size, cloud::InstanceSize::xlarge);
  EXPECT_FALSE(entry("CPA-Eager").size.has_value());
  EXPECT_FALSE(entry("RoundRobin-s").size.has_value());
  // Every homogeneous label is "<provisioning>-<size suffix>".
  for (const scheduling::StrategyEntry& e : scheduling::strategy_registry()) {
    if (e.family != scheduling::StrategyFamily::homogeneous) continue;
    ASSERT_TRUE(e.size.has_value()) << e.strategy.label;
    const std::string& label = e.strategy.label;
    EXPECT_EQ(label.substr(label.rfind('-') + 1), cloud::suffix_of(*e.size));
  }
}

TEST(StrategySet, SizedSubsets) {
  for (cloud::InstanceSize size :
       {cloud::InstanceSize::small, cloud::InstanceSize::medium,
        cloud::InstanceSize::large}) {
    std::size_t homogeneous = 0;
    for (const scheduling::StrategyEntry& e : scheduling::strategy_registry())
      if (e.in_legend && e.size == size) ++homogeneous;
    EXPECT_EQ(homogeneous, 5u) << cloud::suffix_of(size);
  }
  std::size_t dynamic = 0;
  for (const scheduling::StrategyEntry& e : scheduling::strategy_registry())
    if (e.family == scheduling::StrategyFamily::dynamic) ++dynamic;
  EXPECT_EQ(dynamic, 4u);
}

TEST(Report, TableAndCsvCoverEveryRun) {
  const ExperimentRunner runner;
  const auto results = runner.run_all(paper_workflows()[3],  // sequential: fast
                                      workload::ScenarioKind::best_case);
  const util::TextTable table = results_table(results);
  EXPECT_EQ(table.rows(), results.size());
  const std::string csv = results_csv(results);
  // Header + one line per run.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            results.size() + 1);
}

}  // namespace
}  // namespace cloudwf::exp
