#include "check/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "dag/science.hpp"
#include "exp/experiment.hpp"
#include "scheduling/factory.hpp"
#include "sim/validator.hpp"

namespace cloudwf::check {
namespace {

bool has_violation(const OracleReport& report, const std::string& invariant) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&invariant](const Violation& v) {
                       return v.invariant == invariant;
                     });
}

struct Fixture {
  dag::Workflow wf{"oracle"};
  cloud::Platform platform = cloud::Platform::ec2();

  Fixture() {
    const dag::TaskId a = wf.add_task("a", 100.0);
    const dag::TaskId b = wf.add_task("b", 200.0);
    wf.add_edge(a, b);
  }
};

TEST(Oracle, AcceptsFeasibleSchedule) {
  Fixture f;
  sim::Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 100.0, 300.0);
  const OracleReport report = check_schedule(f.wf, s, f.platform);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Oracle, FlagsUnassignedTask) {
  Fixture f;
  sim::Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  const OracleReport report = check_schedule(f.wf, s, f.platform);
  EXPECT_TRUE(has_violation(report, "assignment"));
  EXPECT_FALSE(report.ok());
}

TEST(Oracle, FlagsWrongDuration) {
  Fixture f;
  sim::Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 100.0, 250.0);  // 150 s instead of 200 s on small
  EXPECT_TRUE(has_violation(check_schedule(f.wf, s, f.platform), "duration"));
}

TEST(Oracle, FlagsPrecedenceViolation) {
  Fixture f;
  sim::Schedule s(f.wf);
  const cloud::VmId v0 = s.rent(cloud::InstanceSize::small, 0);
  const cloud::VmId v1 = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, v0, 0.0, 100.0);
  s.assign(1, v1, 50.0, 250.0);  // starts before its predecessor finishes
  EXPECT_TRUE(has_violation(check_schedule(f.wf, s, f.platform), "precedence"));
}

TEST(Oracle, FlagsTimelineTableMismatch) {
  Fixture f;
  sim::Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 100.0, 300.0);
  s.pool().vm(vm).clear();  // timeline wiped; the task table still points here
  EXPECT_TRUE(
      has_violation(check_schedule(f.wf, s, f.platform), "table-timeline"));
}

TEST(Oracle, FlagsTaskStartingBeforeBoot) {
  Fixture f;
  f.platform.set_boot_time(60.0);
  sim::Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);  // boots at 60 s, starts at 0
  s.assign(1, vm, 100.0, 300.0);
  EXPECT_TRUE(has_violation(check_schedule(f.wf, s, f.platform), "boot"));

  sim::Schedule ok(f.wf);
  const cloud::VmId w = ok.rent(cloud::InstanceSize::small, 0);
  ok.assign(0, w, 60.0, 160.0);
  ok.assign(1, w, 160.0, 360.0);
  EXPECT_TRUE(check_schedule(f.wf, ok, f.platform).ok());
}

TEST(Oracle, BillingRecomputeAgreesAcrossSessions) {
  // Two placements more than a paid BTU apart: the VM is released at the
  // boundary and re-rented, i.e. two sessions of one BTU each — cheaper than
  // one stretched three-BTU session. The oracle must re-derive exactly that.
  Fixture f;
  dag::Workflow wf{"sessions"};
  const dag::TaskId a = wf.add_task("a", 100.0);
  (void)wf.add_task("b", 200.0);
  (void)a;
  sim::Schedule s(wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 8000.0, 8200.0);  // past paid_end = 3600 s
  ASSERT_EQ(s.pool().vm(static_cast<cloud::VmId>(vm)).sessions().size(), 2u);
  const OracleReport report = check_schedule(wf, s, f.platform);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Oracle, BillingExactBtuBoundaryAgrees) {
  dag::Workflow wf{"boundary"};
  (void)wf.add_task("a", 3600.0);  // exactly one BTU on small
  cloud::Platform platform = cloud::Platform::ec2();
  sim::Schedule s(wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 3600.0);
  const OracleReport report = check_schedule(wf, s, platform);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Oracle, CleanStrategySchedulesPassEveryCheck) {
  // All 19 production strategies on a materialized paper workflow: the
  // oracle (including billing + metrics recompute) must find nothing.
  exp::ExperimentRunner runner;
  const std::vector<dag::Workflow> workflows = exp::paper_workflows();
  const dag::Workflow wf =
      runner.materialize(workflows.front(), workload::ScenarioKind::pareto);
  for (const scheduling::Strategy& strategy : scheduling::paper_strategies()) {
    const sim::Schedule s = strategy.scheduler->run(wf, runner.platform());
    const OracleReport report = check_schedule(wf, s, runner.platform());
    EXPECT_TRUE(report.ok())
        << strategy.label << ":\n" << report.to_string();
  }
}

TEST(Oracle, ScalesNearLinearlyToTenThousandPlacements) {
  // Every oracle pass (assignment, duration, overlap, precedence, boot,
  // billing, metrics recompute) walks placements, edges, or VMs linearly.
  // Guard that contract at the 10^4 scale this repo now targets: checking a
  // 10,004-placement schedule must stay comfortably sub-linear-in-seconds.
  // The bound is deliberately loose (sanitizer builds run this too); the
  // real regression gate for throughput lives in bench_large_dag.
  exp::ExperimentRunner runner;
  const dag::Workflow wf = dag::science::scaled(dag::science::Family::epigenomics, 10000);
  ASSERT_GE(wf.task_count(), 10000u);
  const scheduling::Strategy strategy =
      scheduling::strategy_by_label("AllParExceed-s");
  const sim::Schedule s = strategy.scheduler->run(wf, runner.platform());

  const auto start = std::chrono::steady_clock::now();
  const OracleReport report = check_schedule(wf, s, runner.platform());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_LT(elapsed.count(), 15000) << "oracle took " << elapsed.count()
                                    << " ms on a 10^4-placement schedule";
}

TEST(Oracle, StructuralViolationsMatchValidatorOneForOne) {
  // a -> b with 1 GB shipped (~8 s across VMs); c, y and z independent, y
  // and z with next to no work. Each case seeds one defect into the clean
  // schedule; sim::validate and the oracle must name it with the same code
  // and detail, in the same order.
  dag::Workflow wf{"parity"};
  const dag::TaskId a = wf.add_task("a", 100.0, 1.0);
  const dag::TaskId b = wf.add_task("b", 200.0);
  const dag::TaskId c = wf.add_task("c", 50.0);
  const dag::TaskId y = wf.add_task("y", 1e-8);
  const dag::TaskId z = wf.add_task("z", 1e-8);
  wf.add_edge(a, b);
  const cloud::Platform platform = cloud::Platform::ec2();

  struct Slot {
    dag::TaskId task;
    int vm;  // index of the rented VM; -1 leaves the task unassigned
    util::Seconds start;
    util::Seconds end;
  };
  // The clean schedule, in placement order.
  const std::vector<Slot> clean = {{a, 0, 0.0, 100.0},   {b, 1, 110.0, 310.0},
                                   {y, 1, 310.0, 310.0}, {z, 1, 310.0, 310.0},
                                   {c, 0, 100.0, 150.0}};
  // Vm::place lets an append start up to the schedule-time slack before
  // the latest end. Appended after the zero-length y and z, c may start
  // just before their instant: sorted by start, it covers them.
  constexpr util::Seconds kDrift = 0.9 * util::kTimeEpsilon;
  struct Case {
    const char* defect;
    const char* invariant;
    std::vector<Slot> edits;  // replace the clean slot of the same task
    bool clear_second_vm = false;
  };
  const Case cases[] = {
      {"none", nullptr, {}},
      {"unassigned", "assignment", {{b, -1, 0.0, 0.0}}},
      {"wrong-duration", "duration", {{c, 0, 100.0, 120.0}}},
      {"overlapping", "overlap", {{c, 1, 310.0 - kDrift, 360.0 - kDrift}}},
      {"missing-transfer-slack", "precedence", {{b, 1, 100.0, 300.0}}},
      {"cleared-timeline", "table-timeline", {}, true},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(k.defect);
    sim::Schedule s(wf);
    const cloud::VmId vms[] = {s.rent(cloud::InstanceSize::small, 0),
                               s.rent(cloud::InstanceSize::small, 0)};
    for (Slot slot : clean) {
      for (const Slot& edit : k.edits)
        if (edit.task == slot.task) slot = edit;
      if (slot.vm >= 0) s.assign(slot.task, vms[slot.vm], slot.start, slot.end);
    }
    if (k.clear_second_vm) s.pool().vm(vms[1]).clear();

    const std::vector<Violation> issues = sim::validate(wf, s, platform);
    const OracleReport report = check_schedule(wf, s, platform);
    if (k.invariant == nullptr) {
      EXPECT_TRUE(issues.empty());
      EXPECT_TRUE(report.ok()) << report.to_string();
      continue;
    }
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].invariant, k.invariant) << issues[0].detail;
    ASSERT_GE(report.violations.size(), issues.size());
    for (std::size_t i = 0; i < issues.size(); ++i) {
      EXPECT_EQ(report.violations[i].invariant, issues[i].invariant);
      EXPECT_EQ(report.violations[i].detail, issues[i].detail);
    }
  }
}

TEST(Oracle, ReportSerializesMachineReadably) {
  Fixture f;
  sim::Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  const OracleReport report = check_schedule(f.wf, s, f.platform);
  ASSERT_FALSE(report.ok());

  const util::Json j = report.to_json();
  EXPECT_EQ(j.find("workflow")->as_string(), "oracle");
  EXPECT_FALSE(j.find("ok")->as_bool());
  const util::Json::Array& violations = j.find("violations")->as_array();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].find("invariant")->as_string(), "assignment");
  EXPECT_FALSE(violations[0].find("detail")->as_string().empty());

  // Round-trips through the strict parser.
  EXPECT_NO_THROW((void)util::Json::parse(j.dump()));
}

}  // namespace
}  // namespace cloudwf::check
