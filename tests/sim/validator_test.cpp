#include "sim/validator.hpp"

#include <gtest/gtest.h>

namespace cloudwf::sim {
namespace {

struct Fixture {
  dag::Workflow wf{"v"};
  cloud::Platform platform = cloud::Platform::ec2();

  Fixture() {
    const dag::TaskId a = wf.add_task("a", 100.0);
    const dag::TaskId b = wf.add_task("b", 200.0);
    wf.add_edge(a, b);
  }
};

TEST(Validator, AcceptsFeasibleSchedule) {
  Fixture f;
  Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 100.0, 300.0);
  EXPECT_TRUE(validate(f.wf, s, f.platform).empty());
  EXPECT_NO_THROW(validate_or_throw(f.wf, s, f.platform));
}

TEST(Validator, FlagsUnassignedTask) {
  Fixture f;
  Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  const auto issues = validate(f.wf, s, f.platform);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].detail.find("unassigned"), std::string::npos);
  EXPECT_THROW(validate_or_throw(f.wf, s, f.platform), std::logic_error);
}

TEST(Validator, FlagsWrongDuration) {
  Fixture f;
  Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 100.0, 250.0);  // 150 s instead of 200 s on small
  const auto issues = validate(f.wf, s, f.platform);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].detail.find("work/speedup"), std::string::npos);
}

TEST(Validator, DurationHonorsSpeedup) {
  Fixture f;
  Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::medium, 0);
  // On medium (speedup 1.6): 100/1.6 = 62.5, then 200/1.6 = 125.
  s.assign(0, vm, 0.0, 62.5);
  s.assign(1, vm, 62.5, 187.5);
  EXPECT_TRUE(validate(f.wf, s, f.platform).empty());
}

TEST(Validator, FlagsPrecedenceViolation) {
  Fixture f;
  Schedule s(f.wf);
  const cloud::VmId v0 = s.rent(cloud::InstanceSize::small, 0);
  const cloud::VmId v1 = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, v0, 0.0, 100.0);
  s.assign(1, v1, 50.0, 250.0);  // starts before its predecessor finishes
  const auto issues = validate(f.wf, s, f.platform);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].detail.find("starts at"), std::string::npos);
}

TEST(Validator, FlagsMissingTransferSlack) {
  Fixture f;
  f.wf.task(0).output_data = 1.0;  // 1 GB must flow a -> b
  Schedule s(f.wf);
  const cloud::VmId v0 = s.rent(cloud::InstanceSize::small, 0);
  const cloud::VmId v1 = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, v0, 0.0, 100.0);
  // Back-to-back on different VMs: no time for the ~8 s transfer.
  s.assign(1, v1, 100.0, 300.0);
  EXPECT_FALSE(validate(f.wf, s, f.platform).empty());

  // Same scenario with the transfer slack is accepted.
  Schedule ok(f.wf);
  const cloud::VmId w0 = ok.rent(cloud::InstanceSize::small, 0);
  const cloud::VmId w1 = ok.rent(cloud::InstanceSize::small, 0);
  ok.assign(0, w0, 0.0, 100.0);
  ok.assign(1, w1, 110.0, 310.0);
  EXPECT_TRUE(validate(f.wf, ok, f.platform).empty());
}

TEST(Validator, SameVmNeedsNoTransferSlack) {
  Fixture f;
  f.wf.task(0).output_data = 50.0;  // big, but stays on the VM
  Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 100.0, 300.0);
  EXPECT_TRUE(validate(f.wf, s, f.platform).empty());
}

TEST(Validator, SizeMismatchReported) {
  Fixture f;
  const Schedule s(3);  // wrong task count
  const auto issues = validate(f.wf, s, f.platform);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].detail.find("sized for"), std::string::npos);
}

}  // namespace
}  // namespace cloudwf::sim
