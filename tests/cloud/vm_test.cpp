#include "cloud/vm.hpp"

#include <gtest/gtest.h>

namespace cloudwf::cloud {
namespace {

TEST(Vm, FreshVmIsUnused) {
  const Vm vm(0, InstanceSize::small, 0);
  EXPECT_FALSE(vm.used());
  EXPECT_EQ(vm.btus(), 0);
  EXPECT_DOUBLE_EQ(vm.paid_time(), 0.0);
  EXPECT_DOUBLE_EQ(vm.idle_time(), 0.0);
  EXPECT_EQ(vm.cost(ec2_regions()[0]), util::Money{});
}

TEST(Vm, PlacementAccounting) {
  Vm vm(0, InstanceSize::small, 0);
  vm.place(0, 0.0, 1000.0);
  vm.place(1, 1200.0, 2000.0);
  EXPECT_TRUE(vm.used());
  EXPECT_DOUBLE_EQ(vm.first_start(), 0.0);
  EXPECT_DOUBLE_EQ(vm.available_from(), 2000.0);
  EXPECT_DOUBLE_EQ(vm.busy_time(), 1800.0);
  EXPECT_DOUBLE_EQ(vm.span(), 2000.0);
  EXPECT_EQ(vm.btus(), 1);
  EXPECT_DOUBLE_EQ(vm.paid_time(), 3600.0);
  EXPECT_DOUBLE_EQ(vm.idle_time(), 1800.0);  // 3600 paid - 1800 busy
}

TEST(Vm, RentalWindowStartsAtFirstPlacement) {
  Vm vm(0, InstanceSize::small, 0);
  vm.place(0, 5000.0, 5100.0);  // late start: billing begins at 5000
  EXPECT_EQ(vm.btus(), 1);
  EXPECT_DOUBLE_EQ(vm.idle_time(), 3500.0);
}

TEST(Vm, CostScalesWithBtusAndSize) {
  Vm small(0, InstanceSize::small, 0);
  small.place(0, 0.0, 7000.0);  // 2 BTUs
  EXPECT_EQ(small.cost(ec2_regions()[0]), util::Money::from_dollars(0.16));

  Vm xl(1, InstanceSize::xlarge, 0);
  xl.place(0, 0.0, 100.0);  // 1 BTU at $0.64
  EXPECT_EQ(xl.cost(ec2_regions()[0]), util::Money::from_dollars(0.64));
}

TEST(Vm, PlacementAddsBtu) {
  Vm vm(0, InstanceSize::small, 0);
  EXPECT_TRUE(vm.placement_adds_btu(0.0, 100.0));  // unused: rents BTU 1
  vm.place(0, 0.0, 1000.0);
  EXPECT_FALSE(vm.placement_adds_btu(1000.0, 3600.0));  // inside BTU 1
  EXPECT_TRUE(vm.placement_adds_btu(1000.0, 3700.0));   // would open BTU 2
  // Starting beyond the paid window opens a new session: adds BTUs.
  EXPECT_TRUE(vm.placement_adds_btu(4000.0, 4100.0));
}

TEST(Vm, IdleVmReleasedAtPaidBoundary) {
  // A reuse arriving after the paid BTU expires starts a new billing
  // session; the gap between sessions is not paid (and not idle).
  Vm vm(0, InstanceSize::small, 0);
  vm.place(0, 0.0, 1000.0);       // session 1: [0, 3600) paid
  vm.place(1, 10'000.0, 11'000.0);  // session 2: starts at 10000
  ASSERT_EQ(vm.sessions().size(), 2u);
  EXPECT_EQ(vm.btus(), 2);
  EXPECT_DOUBLE_EQ(vm.paid_time(), 7200.0);
  EXPECT_DOUBLE_EQ(vm.idle_time(), 7200.0 - 2000.0);
  EXPECT_EQ(vm.cost(ec2_regions()[0]), util::Money::from_dollars(0.16));
}

TEST(Vm, ReuseWithinPaidWindowExtendsSession) {
  Vm vm(0, InstanceSize::small, 0);
  vm.place(0, 0.0, 1000.0);
  vm.place(1, 3000.0, 4000.0);  // starts inside [0,3600): same session
  ASSERT_EQ(vm.sessions().size(), 1u);
  EXPECT_EQ(vm.btus(), 2);  // session now spans 4000 s
  EXPECT_DOUBLE_EQ(vm.idle_time(), 7200.0 - 2000.0);
}

TEST(Vm, SessionIdleBoundedByOneBtu) {
  // Each session's idle (paid - busy) is strictly under one BTU plus the
  // intra-session gaps, because release happens at the boundary.
  Vm vm(0, InstanceSize::small, 0);
  vm.place(0, 0.0, 10.0);
  vm.place(1, 7000.0, 7010.0);   // new session (7000 > 3600)
  vm.place(2, 20'000.0, 20'010.0);  // another
  EXPECT_EQ(vm.sessions().size(), 3u);
  EXPECT_EQ(vm.btus(), 3);
  EXPECT_DOUBLE_EQ(vm.idle_time(), 3 * 3600.0 - 30.0);
}

TEST(Vm, AppendOnlyPlacement) {
  Vm vm(0, InstanceSize::small, 0);
  vm.place(0, 0.0, 100.0);
  EXPECT_THROW(vm.place(1, 50.0, 150.0), std::logic_error);  // overlap
  EXPECT_NO_THROW(vm.place(1, 100.0, 150.0));  // back-to-back is fine
}

TEST(Vm, SlackDoesNotAccumulateAcrossAppends) {
  // Each append may start up to the 1 us slack before the latest end, and
  // an end may fall up to the slack before its start. Checked only against
  // the last placement's end, three appends would drift 1.8 us below the
  // first end and overlap it by more than the slack.
  Vm vm(0, InstanceSize::small, 0);
  vm.place(0, 300.0, 310.0);
  vm.place(1, 310.0 - 0.9e-6, 310.0 - 0.9e-6);
  EXPECT_DOUBLE_EQ(vm.available_from(), 310.0 - 0.9e-6);
  EXPECT_THROW(vm.place(2, 310.0 - 1.8e-6, 310.0 - 2.7e-6), std::logic_error);
  EXPECT_EQ(vm.placements().size(), 2u);
  vm.clear();
  EXPECT_NO_THROW(vm.place(2, 0.0, 1.0));  // clear() forgets the old ends
}

TEST(Vm, RejectsBadIntervals) {
  Vm vm(0, InstanceSize::small, 0);
  EXPECT_THROW(vm.place(dag::kInvalidTask, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(vm.place(0, -5.0, 1.0), std::invalid_argument);
  EXPECT_THROW(vm.place(0, 10.0, 5.0), std::invalid_argument);
}

TEST(Vm, ResizeOnlyWhileEmpty) {
  Vm vm(0, InstanceSize::small, 0);
  vm.set_size(InstanceSize::large);
  EXPECT_EQ(vm.size(), InstanceSize::large);
  vm.place(0, 0.0, 1.0);
  EXPECT_THROW(vm.set_size(InstanceSize::small), std::logic_error);
  vm.clear();
  EXPECT_NO_THROW(vm.set_size(InstanceSize::small));
}

TEST(VmPool, RentAssignsSequentialIds) {
  VmPool pool;
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.rent(InstanceSize::small, 0).id(), 0u);
  EXPECT_EQ(pool.rent(InstanceSize::large, 2).id(), 1u);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.vm(1).region(), 2);
  EXPECT_THROW((void)pool.vm(9), std::out_of_range);
}

TEST(VmPool, AggregateCostIdleAndUsage) {
  VmPool pool;
  // rent() references are invalidated by further rents — address by id.
  const VmId a = pool.rent(InstanceSize::small, 0).id();
  const VmId b = pool.rent(InstanceSize::medium, 0).id();
  (void)pool.rent(InstanceSize::large, 0);  // never used: free
  pool.vm(a).place(0, 0.0, 1800.0);
  pool.vm(b).place(1, 0.0, 3600.0);
  EXPECT_EQ(pool.used_count(), 2u);
  EXPECT_EQ(pool.rental_cost(ec2_regions()),
            util::Money::from_dollars(0.08 + 0.16));
  EXPECT_DOUBLE_EQ(pool.total_idle_time(), 1800.0);
}

TEST(VmPool, ClearPlacementsKeepsVms) {
  VmPool pool;
  pool.rent(InstanceSize::small, 0).place(0, 0.0, 10.0);
  pool.clear_placements();
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_FALSE(pool.vm(0).used());
}

}  // namespace
}  // namespace cloudwf::cloud
