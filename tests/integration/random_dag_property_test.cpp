// Property-based sweeps: every strategy must produce a feasible schedule
// with sane invariants on randomly generated DAGs with Pareto works.
#include <gtest/gtest.h>

#include "dag/generators.hpp"
#include "dag/graph_algo.hpp"
#include "scheduling/factory.hpp"
#include "sim/event_sim.hpp"
#include "sim/metrics.hpp"
#include "sim/validator.hpp"
#include "workload/pareto.hpp"

namespace cloudwf {
namespace {

dag::Workflow random_workflow(std::uint64_t seed) {
  util::Rng rng(seed);
  dag::generators::LayeredConfig cfg;
  cfg.levels = 2 + static_cast<std::size_t>(rng.below(6));
  cfg.min_width = 1;
  cfg.max_width = 1 + static_cast<std::size_t>(rng.below(5));
  cfg.edge_density = 0.2 + 0.6 * rng.uniform();
  cfg.skip_density = 0.15 * rng.uniform();
  dag::Workflow wf = dag::generators::random_layered(cfg, rng);

  const workload::ParetoDistribution exec = workload::paper_exec_time_distribution();
  const workload::ParetoDistribution data = workload::paper_task_size_distribution();
  for (const dag::Task& t : wf.tasks()) {
    wf.task(t.id).work = exec.sample(rng);
    wf.task(t.id).output_data = data.sample(rng) / 1024.0;
  }
  return wf;
}

class RandomDagProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDagProperty, EveryStrategyFeasibleAndReplayable) {
  const dag::Workflow wf = random_workflow(GetParam());
  const cloud::Platform platform = cloud::Platform::ec2();
  const sim::EventSimulator replayer(platform);

  for (const scheduling::Strategy& strat : scheduling::paper_strategies()) {
    const sim::Schedule s = strat.scheduler->run(wf, platform);
    // Feasibility by the independent validator.
    const auto issues = sim::validate(wf, s, platform);
    EXPECT_TRUE(issues.empty())
        << strat.label << " seed=" << GetParam()
        << (issues.empty() ? "" : ": " + issues.front().detail);

    // Replay agreement.
    const sim::ReplayResult r = replayer.replay(wf, s);
    EXPECT_NEAR(r.makespan, s.makespan(), 1e-6) << strat.label;

    // Metric sanity.
    const sim::ScheduleMetrics m = sim::compute_metrics(wf, s, platform);
    EXPECT_GT(m.makespan, 0.0) << strat.label;
    EXPECT_GT(m.total_cost, util::Money{}) << strat.label;
    EXPECT_GE(m.total_idle, -1e-6) << strat.label;
    EXPECT_GE(m.utilization, 0.0);
    EXPECT_LE(m.utilization, 1.0 + 1e-12);
    EXPECT_LE(m.vms_used, wf.task_count()) << strat.label;

    // Makespan can never beat the (zero-comm) critical path at the fastest
    // speed-up.
    const util::Seconds cp = dag::critical_path_length(
        wf, [&](dag::TaskId t) { return wf.task(t).work / 2.7; },
        [](dag::TaskId, dag::TaskId) { return 0.0; });
    EXPECT_GE(m.makespan, cp - 1e-6) << strat.label;
  }
}

TEST_P(RandomDagProperty, VmCountOrderingAcrossProvisionings) {
  const dag::Workflow wf = random_workflow(GetParam() ^ 0xabcdef);
  const cloud::Platform platform = cloud::Platform::ec2();
  const auto vms = [&](const char* label) {
    return scheduling::strategy_by_label(label)
        .scheduler->run(wf, platform)
        .pool()
        .size();
  };
  // Exceed variants never rent more than their NotExceed counterparts, and
  // nothing rents more than OneVMperTask.
  EXPECT_LE(vms("StartParExceed-s"), vms("StartParNotExceed-s"));
  EXPECT_LE(vms("AllParExceed-s"), vms("AllParNotExceed-s"));
  EXPECT_LE(vms("StartParNotExceed-s"), vms("OneVMperTask-s"));
  EXPECT_LE(vms("AllParNotExceed-s"), vms("OneVMperTask-s"));
}

TEST_P(RandomDagProperty, BaselinesFeasibleToo) {
  const dag::Workflow wf = random_workflow(GetParam() ^ 0xba5e);
  const cloud::Platform platform = cloud::Platform::ec2();
  for (const scheduling::Strategy& strat : scheduling::baseline_strategies()) {
    const sim::Schedule s = strat.scheduler->run(wf, platform);
    const auto issues = sim::validate(wf, s, platform);
    EXPECT_TRUE(issues.empty())
        << strat.label << " seed=" << GetParam()
        << (issues.empty() ? "" : ": " + issues.front().detail);
    const sim::ScheduleMetrics m = sim::compute_metrics(wf, s, platform);
    EXPECT_GT(m.makespan, 0.0) << strat.label;
    EXPECT_GT(m.total_cost, util::Money{}) << strat.label;
  }
}

TEST_P(RandomDagProperty, HeftOrderIsTopological) {
  const dag::Workflow wf = random_workflow(GetParam() ^ 0x5eed);
  const auto order = dag::heft_order(
      wf, [&](dag::TaskId t) { return wf.task(t).work; },
      [](dag::TaskId, dag::TaskId) { return 1.0; });
  std::vector<std::size_t> pos(wf.task_count());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const dag::Edge& e : wf.edges()) EXPECT_LT(pos[e.from], pos[e.to]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u, 144u, 233u));

}  // namespace
}  // namespace cloudwf
