// Pins the exact outputs of the perturbed replays — replay_with_faults at a
// positive failure rate and replay_with_actuals at a positive sigma — on
// every paper workflow x paper strategy, under the warm Pareto scenario and
// under cold starts (boot-delayed ready times). Each digest is FNV-1a over
// the bit patterns of every task's start/end, the makespan and the fault
// counters, so any change to the replay loop's arithmetic or event order,
// or to the fault sampler's RNG draw order, moves it.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "sim/faults.hpp"
#include "sim/online.hpp"

namespace cloudwf::sim {
namespace {

struct Digest {
  std::uint64_t h = 14695981039346656037ull;

  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::vector<ReplayedTask>& tasks) {
    for (const ReplayedTask& t : tasks) {
      add(t.start);
      add(t.end);
    }
  }
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

constexpr workload::ScenarioKind kKinds[] = {
    workload::ScenarioKind::pareto, workload::ScenarioKind::cold_start};

// Calls `visit(wf, schedule, platform, case_index)` for every (workflow,
// scenario, strategy) case, in a fixed order.
template <typename Visit>
void for_each_case(const dag::Workflow& structure, Visit visit) {
  const exp::ExperimentRunner runner;
  std::uint64_t index = 0;
  for (workload::ScenarioKind kind : kKinds) {
    const dag::Workflow wf = runner.materialize(structure, kind);
    const cloud::Platform platform = runner.scenario_platform(kind);
    for (const scheduling::Strategy& strategy : scheduling::paper_strategies())
      visit(wf, strategy.scheduler->run(wf, platform), platform, index++);
  }
}

// Also adds the failed attempts it replayed to `failures`.
std::uint64_t faults_digest(const dag::Workflow& structure,
                            std::size_t& failures) {
  Digest d;
  for_each_case(structure, [&](const dag::Workflow& wf, const Schedule& s,
                               const cloud::Platform& platform,
                               std::uint64_t index) {
    FaultModel model;
    model.failures_per_vm_hour = 1.5;
    util::Rng rng(0x5eed + index);
    const FaultyReplayResult r =
        replay_with_faults(wf, s, platform, model, rng);
    d.add(r.tasks);
    d.add(r.makespan);
    d.add(static_cast<std::uint64_t>(r.failures));
    d.add(r.time_lost);
    failures += r.failures;
  });
  return d.h;
}

std::uint64_t actuals_digest(const dag::Workflow& structure) {
  Digest d;
  for_each_case(structure, [&](const dag::Workflow& wf, const Schedule& s,
                               const cloud::Platform& platform,
                               std::uint64_t index) {
    RuntimeErrorModel model;
    model.sigma = 0.4;
    util::Rng rng(0xac7 + index);
    const ReplayResult r = replay_with_actuals(
        wf, s, platform, model.sample_actual_works(wf, rng));
    d.add(r.tasks);
    d.add(r.makespan);
    d.add(static_cast<std::uint64_t>(r.events_processed));
  });
  return d.h;
}

struct Pinned {
  const char* workflow;
  std::uint64_t faults;
  std::uint64_t actuals;
};

// Recorded from the replay loops as they stood before they were folded into
// EventSimulator's one loop.
constexpr Pinned kPinned[] = {
    {"montage", 0x384a59e836119d47ull, 0xc042b70755aed28full},
    {"cstem", 0x31bcb7d2c23e018aull, 0x749103d840fa0160ull},
    {"mapreduce", 0x6dfb2e7d3bc9a2b8ull, 0xa637dd179796e7dcull},
    {"sequential", 0x7eabfcc2cbeaf358ull, 0xfe6dab148dead86full},
};

TEST(ReplayPin, FaultyReplayOfEveryPaperWorkflowMatchesPinnedDigest) {
  const std::vector<dag::Workflow> workflows = exp::paper_workflows();
  ASSERT_EQ(workflows.size(), std::size(kPinned));
  for (std::size_t i = 0; i < workflows.size(); ++i) {
    ASSERT_EQ(workflows[i].name(), kPinned[i].workflow);
    std::size_t failures = 0;
    EXPECT_EQ(hex(faults_digest(workflows[i], failures)),
              hex(kPinned[i].faults))
        << kPinned[i].workflow;
    EXPECT_GT(failures, 0u) << kPinned[i].workflow;  // the rate bites
  }
}

TEST(ReplayPin, ActualsReplayOfEveryPaperWorkflowMatchesPinnedDigest) {
  const std::vector<dag::Workflow> workflows = exp::paper_workflows();
  ASSERT_EQ(workflows.size(), std::size(kPinned));
  for (std::size_t i = 0; i < workflows.size(); ++i) {
    ASSERT_EQ(workflows[i].name(), kPinned[i].workflow);
    EXPECT_EQ(hex(actuals_digest(workflows[i])), hex(kPinned[i].actuals))
        << kPinned[i].workflow;
  }
}

}  // namespace
}  // namespace cloudwf::sim
