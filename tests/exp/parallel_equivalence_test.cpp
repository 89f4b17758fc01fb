// Serial ≡ parallel golden-equivalence suite: the sweeps and grids must
// produce byte-identical output for any worker count (threads = 1, a fixed
// pool of 4, and hardware_concurrency). This is the determinism regression
// the whole parallel engine is built around — if any of these fail, a job
// picked up shared state or a worker-order-dependent RNG draw.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/parallel.hpp"
#include "exp/seed_sweep.hpp"
#include "exp/sweeps.hpp"
#include "obs/trace.hpp"

namespace cloudwf::exp {
namespace {

// Worker counts every equivalence case is checked under. ParallelConfig{0}
// resolves to hardware_concurrency().
const std::vector<ParallelConfig> kConfigs = {
    ParallelConfig{1}, ParallelConfig{4}, ParallelConfig{0}};

void expect_identical_runs(const std::vector<RunResult>& serial,
                           const std::vector<RunResult>& parallel,
                           const std::string& label) {
  ASSERT_EQ(serial.size(), parallel.size()) << label;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].strategy, parallel[i].strategy) << label;
    EXPECT_EQ(serial[i].workflow, parallel[i].workflow) << label;
    EXPECT_EQ(serial[i].scenario, parallel[i].scenario) << label;
    // Bitwise agreement, not tolerance: the parallel path must run the very
    // same arithmetic in the very same order.
    EXPECT_EQ(serial[i].metrics.makespan, parallel[i].metrics.makespan)
        << label << " " << serial[i].strategy;
    EXPECT_EQ(serial[i].metrics.total_cost, parallel[i].metrics.total_cost)
        << label << " " << serial[i].strategy;
    EXPECT_EQ(serial[i].metrics.total_idle, parallel[i].metrics.total_idle)
        << label << " " << serial[i].strategy;
    EXPECT_EQ(serial[i].metrics.utilization, parallel[i].metrics.utilization)
        << label << " " << serial[i].strategy;
    EXPECT_EQ(serial[i].relative.gain_pct, parallel[i].relative.gain_pct)
        << label << " " << serial[i].strategy;
    EXPECT_EQ(serial[i].relative.loss_pct, parallel[i].relative.loss_pct)
        << label << " " << serial[i].strategy;
  }
}

TEST(ParallelEquivalence, SeedSweepFiftySeedsAnyWorkerCount) {
  // The acceptance case: >= 50 seeds on the Montage sweep, byte-identical
  // rendered tables for every worker count.
  const dag::Workflow montage = paper_workflows()[0];
  const auto serial = seed_sweep(montage, cloud::Platform::ec2(), 50,
                                 0x1db2013, ParallelConfig{1});
  const std::string golden = seed_sweep_table(serial).render();
  for (const ParallelConfig& cfg : kConfigs) {
    const auto rows =
        seed_sweep(montage, cloud::Platform::ec2(), 50, 0x1db2013, cfg);
    EXPECT_EQ(seed_sweep_table(rows).render(), golden)
        << "threads=" << cfg.threads;
  }
}

TEST(ParallelEquivalence, SeedSweepEveryPaperWorkflow) {
  for (const dag::Workflow& wf : paper_workflows()) {
    const auto serial =
        seed_sweep(wf, cloud::Platform::ec2(), 8, 0x1db2013, ParallelConfig{1});
    const std::string golden = seed_sweep_table(serial).render();
    for (const ParallelConfig& cfg : kConfigs) {
      const auto rows =
          seed_sweep(wf, cloud::Platform::ec2(), 8, 0x1db2013, cfg);
      EXPECT_EQ(seed_sweep_table(rows).render(), golden)
          << wf.name() << " threads=" << cfg.threads;
    }
  }
}

TEST(ParallelEquivalence, RunAllEveryPaperWorkflow) {
  for (const dag::Workflow& wf : paper_workflows()) {
    const ExperimentRunner serial_runner(cloud::Platform::ec2(), {},
                                         ParallelConfig{1});
    const auto serial =
        serial_runner.run_all(wf, workload::ScenarioKind::pareto);
    for (const ParallelConfig& cfg : kConfigs) {
      const ExperimentRunner runner(cloud::Platform::ec2(), {}, cfg);
      const auto parallel = runner.run_all(wf, workload::ScenarioKind::pareto);
      expect_identical_runs(serial, parallel,
                            wf.name() + " threads=" +
                                std::to_string(cfg.threads));
    }
  }
}

TEST(ParallelEquivalence, SizeSweepAnyWorkerCount) {
  const std::vector<std::size_t> sizes = {4, 6, 10};
  const auto serial = montage_size_sweep(sizes, 0x1db2013, ParallelConfig{1});
  const std::string golden = size_sweep_table(serial).render();
  for (const ParallelConfig& cfg : kConfigs)
    EXPECT_EQ(size_sweep_table(montage_size_sweep(sizes, 0x1db2013, cfg))
                  .render(),
              golden)
        << "threads=" << cfg.threads;
}

TEST(ParallelEquivalence, HeterogeneitySweepAnyWorkerCount) {
  const std::vector<double> alphas = {1.3, 2.0, 4.0};
  const auto serial = heterogeneity_sweep(alphas, 0x1db2013, ParallelConfig{1});
  const std::string golden = heterogeneity_table(serial).render();
  for (const ParallelConfig& cfg : kConfigs)
    EXPECT_EQ(heterogeneity_table(heterogeneity_sweep(alphas, 0x1db2013, cfg))
                  .render(),
              golden)
        << "threads=" << cfg.threads;
}

TEST(ParallelEquivalence, TracingEnabledPreservesEquivalenceAndCounters) {
  // The obs composition guarantee: a process-global recorder shared by all
  // pool workers must not perturb the results (workers only append to their
  // own lock-free sinks), and the counter totals must be independent of the
  // worker count — same jobs, same events, any interleaving.
  const dag::Workflow wf = paper_workflows()[0];
  const ExperimentRunner serial_runner(cloud::Platform::ec2(), {},
                                       ParallelConfig{1});
  const auto untraced = serial_runner.run_all(wf, workload::ScenarioKind::pareto);

  std::vector<obs::CounterSnapshot> snapshots;
  for (const ParallelConfig& cfg : kConfigs) {
    obs::TraceRecorder recorder(1u << 20);
    obs::set_global_recorder(&recorder);
    const ExperimentRunner runner(cloud::Platform::ec2(), {}, cfg);
    const auto traced = runner.run_all(wf, workload::ScenarioKind::pareto);
    obs::set_global_recorder(nullptr);

    expect_identical_runs(untraced, traced,
                          "traced threads=" + std::to_string(cfg.threads));
    snapshots.push_back(recorder.counters());
    EXPECT_GT(recorder.counters().events_recorded, 0u)
        << "threads=" << cfg.threads;
    EXPECT_EQ(recorder.counters().events_dropped, 0u)
        << "threads=" << cfg.threads;
  }
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i].events_recorded, snapshots[0].events_recorded);
    EXPECT_EQ(snapshots[i].vms_rented, snapshots[0].vms_rented);
    EXPECT_EQ(snapshots[i].vms_reused, snapshots[0].vms_reused);
    EXPECT_EQ(snapshots[i].btus_added, snapshots[0].btus_added);
    EXPECT_EQ(snapshots[i].tasks_placed, snapshots[0].tasks_placed);
  }
}

TEST(ParallelEquivalence, ExceptionsSurfaceFromWorkerJobs) {
  // montage(n) rejects odd n; the throw must cross the pool boundary intact
  // whichever worker hits it.
  for (const ParallelConfig& cfg : kConfigs)
    EXPECT_THROW((void)montage_size_sweep({4, 5, 6}, 0x1db2013, cfg),
                 std::invalid_argument)
        << "threads=" << cfg.threads;
}

}  // namespace
}  // namespace cloudwf::exp
