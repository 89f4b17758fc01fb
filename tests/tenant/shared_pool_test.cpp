#include "tenant/shared_pool.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "check/mt_oracle.hpp"
#include "dag/builders.hpp"
#include "dag/generators.hpp"
#include "scheduling/online_dispatch.hpp"
#include "sim/online.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::tenant {
namespace {

using provisioning::ProvisioningKind;

constexpr ProvisioningKind kMtKinds[] = {ProvisioningKind::one_vm_per_task,
                                         ProvisioningKind::start_par_not_exceed,
                                         ProvisioningKind::start_par_exceed};

dag::Workflow pareto_montage() {
  workload::ScenarioConfig cfg;
  return workload::apply_scenario(dag::builders::montage24(), cfg);
}

dag::Workflow layered(std::uint64_t seed) {
  dag::generators::LayeredConfig cfg;
  cfg.levels = 6;
  cfg.max_width = 5;
  util::Rng rng(seed);
  dag::Workflow wf = dag::generators::random_layered(cfg, rng);
  workload::ScenarioConfig scenario;
  scenario.seed = seed;
  return workload::apply_scenario(wf, scenario);
}

TenantRegistry two_tenants() {
  TenantRegistry reg;
  (void)reg.add({.name = "alice"});
  (void)reg.add({.name = "bob", .weight = 2.0});
  return reg;
}

/// The actual-runtime draw run_shared_pool makes for job j = 0 (the root rng
/// split once), reproduced independently for the differential tests.
std::vector<util::Seconds> first_job_actuals(const dag::Workflow& wf,
                                             const SimConfig& cfg) {
  util::Rng root(cfg.actuals_seed);
  util::Rng job_rng = root.split();
  return sim::RuntimeErrorModel{cfg.sigma}.sample_actual_works(wf, job_rng);
}

// The pinning differential of the subsystem: one tenant, one job arriving at
// 0, no quota pressure — the shared-pool dispatcher must reproduce
// scheduling::run_online bit for bit, for every accepted provisioning kind,
// every sharing policy (they all degenerate with one tenant) and with and
// without runtime-estimate error.
TEST(SharedPool, SingleTenantMatchesRunOnline) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto_montage();
  TenantRegistry reg;
  (void)reg.add({.name = "solo"});

  for (const ProvisioningKind kind : kMtKinds) {
    for (const SharingPolicy policy : kAllSharingPolicies) {
      for (const double sigma : {0.0, 0.3}) {
        SimConfig cfg;
        cfg.policy = policy;
        cfg.provisioning = kind;
        cfg.sigma = sigma;
        const std::vector<JobSpec> jobs = {
            {.tenant = 0, .workflow = wf, .arrival = 0.0}};
        const MultiTenantResult mt =
            run_shared_pool(reg, jobs, platform, cfg);

        const auto actuals = first_job_actuals(wf, cfg);
        const scheduling::OnlineResult ref = scheduling::run_online(
            wf, platform, kind, cfg.vm_size, actuals);

        SCOPED_TRACE(std::string(provisioning::name_of(kind)) + "/" +
                     std::string(name_of(policy)) +
                     "/sigma=" + std::to_string(sigma));
        ASSERT_EQ(mt.jobs.size(), 1u);
        ASSERT_EQ(mt.jobs[0].tasks.size(), wf.task_count());
        EXPECT_EQ(mt.pool.size(), ref.schedule.pool().size());
        EXPECT_EQ(mt.makespan, ref.makespan);
        for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
          const sim::Assignment& a = mt.jobs[0].tasks[t];
          const sim::Assignment& b = ref.schedule.assignment(t);
          EXPECT_EQ(a.vm, b.vm) << "task " << t;
          EXPECT_EQ(a.start, b.start) << "task " << t;
          EXPECT_EQ(a.end, b.end) << "task " << t;
        }
      }
    }
  }
}

TEST(SharedPool, DeterministicAcrossRuns) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const TenantRegistry reg = two_tenants();
  std::vector<JobSpec> jobs;
  jobs.push_back({.tenant = 0, .workflow = layered(7), .arrival = 0.0});
  jobs.push_back({.tenant = 1, .workflow = layered(8), .arrival = 100.0});
  jobs.push_back({.tenant = 0, .workflow = layered(9), .arrival = 2500.0});
  SimConfig cfg;
  cfg.policy = SharingPolicy::weighted_fair;
  cfg.sigma = 0.25;

  const MultiTenantResult a = run_shared_pool(reg, jobs, platform, cfg);
  const MultiTenantResult b = run_shared_pool(reg, jobs, platform, cfg);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.vm_owner, b.vm_owner);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].completion, b.jobs[j].completion);
    EXPECT_EQ(a.jobs[j].actual_works, b.jobs[j].actual_works);
    ASSERT_EQ(a.jobs[j].tasks.size(), b.jobs[j].tasks.size());
    for (std::size_t t = 0; t < a.jobs[j].tasks.size(); ++t) {
      EXPECT_EQ(a.jobs[j].tasks[t].vm, b.jobs[j].tasks[t].vm);
      EXPECT_EQ(a.jobs[j].tasks[t].start, b.jobs[j].tasks[t].start);
      EXPECT_EQ(a.jobs[j].tasks[t].end, b.jobs[j].tasks[t].end);
    }
  }
}

// A job's actual-runtime draw must not depend on how many jobs run beside
// it: job specs are seeded per job off a split chain in job order.
TEST(SharedPool, ActualsStableUnderAddedJobs) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const TenantRegistry reg = two_tenants();
  SimConfig cfg;
  cfg.sigma = 0.4;
  std::vector<JobSpec> one = {
      {.tenant = 0, .workflow = layered(7), .arrival = 0.0}};
  std::vector<JobSpec> two = one;
  two.push_back({.tenant = 1, .workflow = layered(8), .arrival = 10.0});
  const MultiTenantResult a = run_shared_pool(reg, one, platform, cfg);
  const MultiTenantResult b = run_shared_pool(reg, two, platform, cfg);
  EXPECT_EQ(a.jobs[0].actual_works, b.jobs[0].actual_works);
}

TEST(SharedPool, QuotaNeverExceededAndDeferralsCounted) {
  const cloud::Platform platform = cloud::Platform::ec2();
  TenantRegistry reg;
  (void)reg.add({.name = "capped", .max_running = 2});
  const std::vector<JobSpec> jobs = {
      {.tenant = 0, .workflow = pareto_montage(), .arrival = 0.0}};
  SimConfig cfg;
  cfg.provisioning = ProvisioningKind::one_vm_per_task;  // max parallelism
  const MultiTenantResult mt = run_shared_pool(reg, jobs, platform, cfg);

  const check::OracleReport report =
      check::check_multi_tenant(reg, jobs, mt, platform);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // montage24's fan-out is 6-wide: a quota of 2 must actually bite.
  EXPECT_GT(mt.tenants[0].quota_deferrals, 0u);
  EXPECT_EQ(mt.dispatched, jobs[0].workflow.task_count());
}

TEST(SharedPool, ExclusivePartitionsSharedPoolMixes) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const TenantRegistry reg = two_tenants();
  std::vector<JobSpec> jobs;
  jobs.push_back({.tenant = 0, .workflow = pareto_montage(), .arrival = 0.0});
  jobs.push_back({.tenant = 1, .workflow = pareto_montage(), .arrival = 50.0});

  SimConfig cfg;
  cfg.provisioning = ProvisioningKind::start_par_exceed;  // reuse-hungry

  cfg.policy = SharingPolicy::exclusive;
  const MultiTenantResult ex = run_shared_pool(reg, jobs, platform, cfg);
  cfg.policy = SharingPolicy::shared;
  const MultiTenantResult sh = run_shared_pool(reg, jobs, platform, cfg);

  const auto tenants_per_vm = [&jobs](const MultiTenantResult& r) {
    std::size_t mixed = 0;
    for (const cloud::Vm& vm : r.pool.vms()) {
      std::set<TenantId> seen;
      for (const cloud::Placement& p : vm.placements())
        seen.insert(r.tenant_of(p.task, jobs));
      if (seen.size() > 1) ++mixed;
    }
    return mixed;
  };
  EXPECT_EQ(tenants_per_vm(ex), 0u);
  EXPECT_GT(tenants_per_vm(sh), 0u);  // the warm-pool win exists
  // Cross-tenant reuse can only help the rental count.
  EXPECT_LE(sh.pool.size(), ex.pool.size());
}

TEST(SharedPool, OracleGreenAcrossPoliciesAndKinds) {
  const cloud::Platform platform = cloud::Platform::ec2();
  TenantRegistry reg;
  (void)reg.add({.name = "alice", .weight = 1.0, .max_running = 3});
  (void)reg.add({.name = "bob", .weight = 4.0});
  (void)reg.add({.name = "carol", .weight = 2.0, .max_running = 2});
  std::vector<JobSpec> jobs;
  jobs.push_back({.tenant = 0, .workflow = layered(21), .arrival = 0.0});
  jobs.push_back({.tenant = 1, .workflow = layered(22), .arrival = 30.0});
  jobs.push_back({.tenant = 2, .workflow = pareto_montage(), .arrival = 60.0});
  jobs.push_back({.tenant = 1, .workflow = layered(23), .arrival = 4000.0});

  for (const ProvisioningKind kind : kMtKinds) {
    for (const SharingPolicy policy : kAllSharingPolicies) {
      for (const double sigma : {0.0, 0.2}) {
        SimConfig cfg;
        cfg.policy = policy;
        cfg.provisioning = kind;
        cfg.sigma = sigma;
        const MultiTenantResult mt =
            run_shared_pool(reg, jobs, platform, cfg);
        const check::OracleReport report =
            check::check_multi_tenant(reg, jobs, mt, platform);
        EXPECT_TRUE(report.ok())
            << provisioning::name_of(kind) << "/" << name_of(policy)
            << "/sigma=" << sigma << "\n"
            << report.to_string();
        EXPECT_EQ(mt.dispatched,
                  jobs[0].workflow.task_count() + jobs[1].workflow.task_count() +
                      jobs[2].workflow.task_count() +
                      jobs[3].workflow.task_count());
      }
    }
  }
}

// A sub-microsecond task rents a VM for one BTU (cloud::btus_for rounds any
// started span up); the oracle's rent/stop replay must pay that BTU too,
// rather than quantizing a span inside the schedule-time slack to zero.
TEST(SharedPool, OracleBillsSubMicrosecondSessionOneBtu) {
  const cloud::Platform platform = cloud::Platform::ec2();
  TenantRegistry reg;
  (void)reg.add({.name = "solo"});
  dag::Workflow wf{"tiny"};
  (void)wf.add_task("t", 5e-7);
  const std::vector<JobSpec> jobs = {
      {.tenant = 0, .workflow = wf, .arrival = 0.0}};
  const MultiTenantResult mt =
      run_shared_pool(reg, jobs, platform, SimConfig{});
  ASSERT_EQ(mt.pool.size(), 1u);
  EXPECT_EQ(mt.pool.vm(0).btus(), 1);
  const check::OracleReport report =
      check::check_multi_tenant(reg, jobs, mt, platform);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(SharedPool, RejectsInvalidInputs) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const TenantRegistry reg = two_tenants();
  const std::vector<JobSpec> jobs = {
      {.tenant = 0, .workflow = pareto_montage(), .arrival = 0.0}};
  SimConfig cfg;

  TenantRegistry empty;
  EXPECT_THROW((void)run_shared_pool(empty, jobs, platform, cfg),
               std::invalid_argument);
  EXPECT_THROW(
      (void)run_shared_pool(reg, std::vector<JobSpec>{}, platform, cfg),
      std::invalid_argument);

  cfg.provisioning = ProvisioningKind::all_par_not_exceed;
  EXPECT_THROW((void)run_shared_pool(reg, jobs, platform, cfg),
               std::invalid_argument);
  cfg.provisioning = ProvisioningKind::all_par_exceed;
  EXPECT_THROW((void)run_shared_pool(reg, jobs, platform, cfg),
               std::invalid_argument);
  cfg.provisioning = ProvisioningKind::start_par_not_exceed;

  cfg.drr_quantum = 0.0;
  EXPECT_THROW((void)run_shared_pool(reg, jobs, platform, cfg),
               std::invalid_argument);
  cfg.drr_quantum = 3600.0;

  std::vector<JobSpec> bad = jobs;
  bad[0].tenant = 9;
  EXPECT_THROW((void)run_shared_pool(reg, bad, platform, cfg),
               std::invalid_argument);
  bad = jobs;
  bad[0].arrival = -1.0;
  EXPECT_THROW((void)run_shared_pool(reg, bad, platform, cfg),
               std::invalid_argument);
}

TEST(PoissonArrivals, DeterministicIncreasingAndValidated) {
  util::Rng rng(42);
  const auto a = poisson_arrivals(64, 0.01, rng);
  ASSERT_EQ(a.size(), 64u);
  EXPECT_GT(a.front(), 0.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);

  util::Rng rng2(42);
  EXPECT_EQ(poisson_arrivals(64, 0.01, rng2), a);

  util::Rng rng3(1);
  EXPECT_THROW((void)poisson_arrivals(4, 0.0, rng3), std::invalid_argument);
  EXPECT_THROW((void)poisson_arrivals(4, -2.0, rng3), std::invalid_argument);
}

}  // namespace
}  // namespace cloudwf::tenant
