#include "scheduling/heuristics.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dag/builders.hpp"
#include "scheduling/factory.hpp"
#include "sim/metrics.hpp"
#include "sim/validator.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::scheduling {
namespace {

using cloud::InstanceSize;

dag::Workflow pareto(const dag::Workflow& base) {
  workload::ScenarioConfig cfg;
  return workload::apply_scenario(base, cfg);
}

TEST(MinMin, FeasibleOnAllPaperWorkflows) {
  const cloud::Platform platform = cloud::Platform::ec2();
  for (const dag::Workflow& base :
       {dag::builders::montage24(), dag::builders::cstem(),
        dag::builders::map_reduce(), dag::builders::sequential_chain()}) {
    const dag::Workflow wf = pareto(base);
    for (MinMaxMode mode : {MinMaxMode::min_min, MinMaxMode::max_min}) {
      const MinMinScheduler sched(mode, 4, InstanceSize::small);
      const sim::Schedule s = sched.run(wf, platform);
      sim::validate_or_throw(wf, s, platform);
      EXPECT_EQ(s.pool().size(), 4u);
    }
  }
}

TEST(MinMin, DispatchOrderMatchesTheHeuristic) {
  // Independent tasks of distinct lengths on one VM: Min-Min runs them
  // shortest-first, Max-Min longest-first.
  dag::Workflow wf("order");
  (void)wf.add_task("long", 3000.0);
  (void)wf.add_task("short", 500.0);
  (void)wf.add_task("mid", 1500.0);
  const cloud::Platform platform = cloud::Platform::ec2();

  const sim::Schedule min_s =
      MinMinScheduler(MinMaxMode::min_min, 1, InstanceSize::small)
          .run(wf, platform);
  EXPECT_LT(min_s.assignment(1).start, min_s.assignment(2).start);  // short first
  EXPECT_LT(min_s.assignment(2).start, min_s.assignment(0).start);

  const sim::Schedule max_s =
      MinMinScheduler(MinMaxMode::max_min, 1, InstanceSize::small)
          .run(wf, platform);
  EXPECT_LT(max_s.assignment(0).start, max_s.assignment(2).start);  // long first
  EXPECT_LT(max_s.assignment(2).start, max_s.assignment(1).start);
}

TEST(MinMin, NamesAndValidation) {
  EXPECT_EQ(MinMinScheduler(MinMaxMode::min_min, 4, InstanceSize::small).name(),
            "MinMin-s");
  EXPECT_EQ(MinMinScheduler(MinMaxMode::max_min, 4, InstanceSize::medium).name(),
            "MaxMin-m");
  EXPECT_THROW(MinMinScheduler(MinMaxMode::min_min, 0, InstanceSize::small),
               std::invalid_argument);
}

TEST(Ctc, WeightExtremesPickExtremeSizes) {
  const cloud::Region& region = cloud::ec2_regions()[0];
  // Pure time: the fastest instance; pure cost: the cheapest rental.
  EXPECT_EQ(CtcScheduler(1.0).choose_size(5000.0, region),
            InstanceSize::xlarge);
  EXPECT_EQ(CtcScheduler(0.0).choose_size(5000.0, region), InstanceSize::small);
  EXPECT_THROW(CtcScheduler(1.5), std::invalid_argument);
  EXPECT_THROW(CtcScheduler(-0.1), std::invalid_argument);
}

TEST(Ctc, BtuQuantizationCanMakeFasterCheaper) {
  // 5200 s of work: small needs 2 BTUs ($0.16); medium finishes in 3250 s —
  // one BTU ($0.16): same price, much faster. Even a cost-leaning weight
  // should not pick small over medium here (medium dominates).
  const cloud::Region& region = cloud::ec2_regions()[0];
  const InstanceSize pick = CtcScheduler(0.3).choose_size(5200.0, region);
  EXPECT_NE(pick, InstanceSize::small);
}

TEST(Ctc, FeasibleAndMonotoneInWeight) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::montage24());
  util::Seconds prev_ms = 0;
  bool first = true;
  for (double w : {0.0, 0.5, 1.0}) {
    const sim::Schedule s = CtcScheduler(w).run(wf, platform);
    sim::validate_or_throw(wf, s, platform);
    if (!first) {
      EXPECT_LE(s.makespan(), prev_ms + 1e-6) << w;
    }
    prev_ms = s.makespan();
    first = false;
  }
}

TEST(Heuristics, FactoryLabels) {
  // Registered as consecutive baselines, pool of 4 on small instances.
  std::vector<std::string> labels;
  for (const Strategy& s : baseline_strategies()) labels.push_back(s.label);
  const auto min_min = std::find(labels.begin(), labels.end(), "MinMin-s");
  ASSERT_GE(std::distance(min_min, labels.end()), 3) << "MinMin-s missing";
  EXPECT_EQ(*(min_min + 1), "MaxMin-s");
  EXPECT_EQ(*(min_min + 2), "CTC");
  EXPECT_EQ(strategy_by_label("MinMin-s").scheduler->name(), "MinMin-s");
  EXPECT_EQ(strategy_by_label("MaxMin-s").scheduler->name(), "MaxMin-s");
}

}  // namespace
}  // namespace cloudwf::scheduling
