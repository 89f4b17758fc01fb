#include "scheduling/baselines.hpp"

#include <gtest/gtest.h>

#include "dag/builders.hpp"
#include "dag/graph_algo.hpp"
#include "scheduling/factory.hpp"
#include "scheduling/heft.hpp"
#include "scheduling/upgrade.hpp"
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

TEST(Baselines, AllFeasibleOnAllPaperWorkflows) {
  const cloud::Platform platform = cloud::Platform::ec2();
  for (const dag::Workflow& base :
       {dag::builders::montage24(), dag::builders::cstem(),
        dag::builders::map_reduce(), dag::builders::sequential_chain()}) {
    const dag::Workflow wf = pareto(base);
    for (const Strategy& s : baseline_strategies()) {
      const sim::Schedule schedule = s.scheduler->run(wf, platform);
      EXPECT_TRUE(schedule.complete()) << s.label;
      sim::validate_or_throw(wf, schedule, platform);
    }
  }
}

TEST(RoundRobin, SpreadsTasksEvenlyOverThePool) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::sequential_chain(8));
  const RoundRobinScheduler rr(4, InstanceSize::small);
  EXPECT_EQ(rr.name(), "RoundRobin-s");
  const sim::Schedule s = rr.run(wf, platform);
  // 8 chain tasks over 4 VMs: each VM gets exactly 2 (topological order is
  // the chain order).
  for (const cloud::Vm& vm : s.pool().vms())
    EXPECT_EQ(vm.placements().size(), 2u);
}

TEST(RoundRobin, RejectsEmptyPool) {
  EXPECT_THROW(RoundRobinScheduler(0, InstanceSize::small),
               std::invalid_argument);
  EXPECT_THROW(LeastLoadScheduler(0, InstanceSize::small),
               std::invalid_argument);
}

TEST(LeastLoad, BalancesAccumulatedWork) {
  const cloud::Platform platform = cloud::Platform::ec2();
  // Wide fan: one entry, then 8 independent tasks with unequal works.
  dag::Workflow wf("fan");
  const dag::TaskId root = wf.add_task("root", 10.0);
  for (int i = 0; i < 8; ++i) {
    const dag::TaskId t =
        wf.add_task("t" + std::to_string(i), 100.0 * (i + 1));
    wf.add_edge(root, t);
  }
  const LeastLoadScheduler ll(2, InstanceSize::small);
  const sim::Schedule s = ll.run(wf, platform);
  const util::Seconds load0 = s.pool().vm(0).busy_time();
  const util::Seconds load1 = s.pool().vm(1).busy_time();
  // Greedy least-load keeps the two VMs within one max-task of each other.
  EXPECT_LT(std::abs(load0 - load1), 800.0);
}

TEST(Pch, ClustersPartitionTasks) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::montage24());
  const auto clusters =
      PchScheduler::cluster_paths(wf, platform, InstanceSize::small);
  std::vector<int> seen(wf.task_count(), 0);
  for (const auto& c : clusters) {
    EXPECT_FALSE(c.empty());
    for (dag::TaskId t : c) ++seen[t];
    // Each cluster is a path: consecutive members are connected by an edge.
    for (std::size_t i = 1; i < c.size(); ++i)
      EXPECT_TRUE(wf.has_edge(c[i - 1], c[i]));
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(Pch, ChainCollapsesToOneCluster) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::sequential_chain());
  const auto clusters =
      PchScheduler::cluster_paths(wf, platform, InstanceSize::small);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), wf.task_count());

  // One cluster -> one VM -> no transfers: beats OneVMperTask's makespan.
  const sim::Schedule pch = PchScheduler(InstanceSize::small).run(wf, platform);
  EXPECT_EQ(pch.pool().size(), 1u);
}

TEST(Pch, RemovesCriticalPathCommunication) {
  const cloud::Platform platform = cloud::Platform::ec2();
  dag::Workflow wf("datachain");
  // Heavy data along a chain: clustering should beat one-VM-per-task.
  dag::TaskId prev = wf.add_task("t0", 500.0, /*output_data=*/5.0);
  for (int i = 1; i < 5; ++i) {
    const dag::TaskId cur =
        wf.add_task("t" + std::to_string(i), 500.0, 5.0);
    wf.add_edge(prev, cur);
    prev = cur;
  }
  const sim::Schedule pch = PchScheduler(InstanceSize::small).run(wf, platform);
  const HeftScheduler one_vm(provisioning::ProvisioningKind::one_vm_per_task,
                             InstanceSize::small);
  const sim::Schedule per_task = one_vm.run(wf, platform);
  EXPECT_LT(pch.makespan(), per_task.makespan());
}

TEST(Sheft, MeetsReachableDeadlines) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::cstem());
  const std::vector<cloud::InstanceSize> small_sizes(wf.task_count(),
                                                     InstanceSize::small);
  const util::Seconds seed_makespan =
      retime_one_vm_per_task(wf, platform, small_sizes).makespan();

  const SheftScheduler sheft(0.6);
  const sim::Schedule s = sheft.run(wf, platform);
  sim::validate_or_throw(wf, s, platform);
  EXPECT_LE(s.makespan(), 0.6 * seed_makespan + 1e-6);
}

TEST(Sheft, UnreachableDeadlineGivesBestEffort) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::sequential_chain());
  // A chain cannot shrink below 1/2.7 of the seed; ask for 1/10.
  const SheftScheduler sheft(0.1);
  const sim::Schedule s = sheft.run(wf, platform);
  // Best effort: every task ends on xlarge.
  for (const cloud::Vm& vm : s.pool().vms())
    EXPECT_EQ(vm.size(), InstanceSize::xlarge);
}

TEST(Sheft, RejectsBadFraction) {
  EXPECT_THROW(SheftScheduler(0.0), std::invalid_argument);
  EXPECT_THROW(SheftScheduler(1.5), std::invalid_argument);
}

TEST(Baselines, FactoryLabelsAndCount) {
  const auto strategies = baseline_strategies();
  // 3 sizes x {RR, LL, PCH} + SHEFT + biCPA budget/deadline + SCS +
  // Elastic-s + MinMin/MaxMin/CTC + HetHEFT.
  EXPECT_EQ(strategies.size(), 18u);
  for (const Strategy& s : strategies) EXPECT_FALSE(s.label.empty());
}

}  // namespace
}  // namespace cloudwf::scheduling
