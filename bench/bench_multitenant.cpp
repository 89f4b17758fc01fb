// Multi-tenant shared-pool benchmark: N tenants' Poisson job arrivals
// dispatched through tenant::run_shared_pool under all three sharing
// policies, each run oracle-checked and billed — so the timed path covers
// the DRR dispatcher, the policy-filtered VM choice, the multi-tenant
// oracle sweep and the exact billing split.
//
// Two modes:
//   bench_multitenant [--tenants N] [--jobs M] [--tasks T]
//     Per-policy wall-clock table on one workload.
//   bench_multitenant --json FILE [--tenants N] [--jobs M] [--tasks T]
//     Times the serial all-policies pass median-of-5 and writes the
//     BENCH_MULTITENANT.json baseline tools/check_bench_regression.py
//     gates CI on (sweep format: median_serial_ms + splitmix calibration).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/mt_oracle.hpp"
#include "dag/science.hpp"
#include "exp/experiment.hpp"
#include "tenant/billing.hpp"
#include "tenant/shared_pool.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include "harness.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cloudwf;

  std::size_t tenant_count = 3;
  std::size_t job_count = 30;
  std::size_t task_target = 400;
  std::string json_path;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--json" && a + 1 < argc) {
      json_path = argv[++a];
    } else if (arg == "--tenants" && a + 1 < argc) {
      tenant_count = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg == "--jobs" && a + 1 < argc) {
      job_count = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg == "--tasks" && a + 1 < argc) {
      task_target = std::strtoull(argv[++a], nullptr, 10);
    } else {
      std::cerr << "usage: bench_multitenant [--tenants N] [--jobs M] "
                   "[--tasks T] [--json FILE]\n";
      return EXIT_FAILURE;
    }
  }
  if (tenant_count == 0 || job_count == 0 || task_target == 0) {
    std::cerr << "bench_multitenant: counts must be >= 1\n";
    return EXIT_FAILURE;
  }

  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::ExperimentRunner runner(platform);

  tenant::TenantRegistry registry;
  for (std::size_t i = 0; i < tenant_count; ++i) {
    tenant::TenantSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.weight = static_cast<double>(i + 1);
    spec.max_running = 8;
    registry.add(std::move(spec));
  }

  const dag::Workflow wf = runner.materialize(
      dag::science::scaled(dag::science::Family::epigenomics, task_target),
      workload::ScenarioKind::pareto);
  util::Rng arrival_rng(0x2013beac);
  const std::vector<util::Seconds> arrivals =
      tenant::poisson_arrivals(job_count, 0.005, arrival_rng);
  std::vector<tenant::JobSpec> jobs;
  jobs.reserve(job_count);
  for (std::size_t j = 0; j < job_count; ++j)
    jobs.push_back({static_cast<tenant::TenantId>(j % tenant_count), wf,
                    arrivals[j]});

  // One full pass: simulate + oracle + billing under every sharing policy.
  const auto run_policy = [&](tenant::SharingPolicy policy) {
    tenant::SimConfig cfg;
    cfg.policy = policy;
    cfg.sigma = 0.2;
    const tenant::MultiTenantResult result =
        tenant::run_shared_pool(registry, jobs, platform, cfg);
    const check::OracleReport report =
        check::check_multi_tenant(registry, jobs, result, platform);
    if (!report.ok())
      throw std::runtime_error("oracle violation under " +
                               std::string(tenant::name_of(policy)) + ":\n" +
                               report.to_string());
    const tenant::BillingBreakdown billing = tenant::attribute_billing(
        result.pool, platform.regions(), registry,
        [&](dag::TaskId global) { return result.tenant_of(global, jobs); });
    if (billing.total != result.pool.rental_cost(platform.regions()))
      throw std::runtime_error("billing does not recompose");
    return result;
  };
  const auto timed_all_policies = [&] {
    const auto start = Clock::now();
    for (const tenant::SharingPolicy policy : tenant::kAllSharingPolicies)
      (void)run_policy(policy);
    return ms_since(start);
  };

  if (!json_path.empty()) {
    (void)timed_all_policies();  // warm-up: fault in code + allocator pools
    constexpr int kRepeats = 5;
    std::vector<double> samples;
    samples.reserve(kRepeats);
    for (int r = 0; r < kRepeats; ++r) samples.push_back(timed_all_policies());
    const double median = cloudwf::bench::median(samples);

    const double calibration = cloudwf::bench::calibration_ms();

    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "FAIL: cannot write " << json_path << '\n';
      return EXIT_FAILURE;
    }
    out << "{\n"
        << "  \"benchmark\": \"bench_multitenant\",\n"
        << "  \"workflow\": \"" << wf.name() << "\",\n"
        << "  \"tenants\": " << tenant_count << ",\n"
        << "  \"jobs\": " << job_count << ",\n"
        << "  \"tasks_per_job\": " << wf.task_count() << ",\n"
        << "  \"policies\": " << tenant::kAllSharingPolicies.size() << ",\n"
        << "  \"seeds\": 1,\n"
        << "  \"repeats\": " << kRepeats << ",\n"
        << "  \"serial_ms\": [";
    for (std::size_t i = 0; i < samples.size(); ++i)
      out << (i ? ", " : "") << util::format_double(samples[i], 3);
    out << "],\n"
        << "  \"median_serial_ms\": " << util::format_double(median, 3) << ",\n"
        << "  \"calibration_ms\": " << util::format_double(calibration, 3) << "\n"
        << "}\n";
    std::cout << tenant_count << " tenants x " << job_count << " jobs of "
              << wf.task_count() << " tasks, all policies: median "
              << util::format_double(median, 1) << " ms over " << kRepeats
              << " repeats -> " << json_path << '\n';
    return EXIT_SUCCESS;
  }

  std::cout << "=== " << tenant_count << " tenants, " << job_count
            << " jobs of " << wf.name() << " @ " << wf.task_count()
            << " tasks, sigma 0.2 ===\n";
  util::TextTable t(
      {"policy", "wall ms", "makespan s", "VMs", "rental", "deferrals"});
  for (const tenant::SharingPolicy policy : tenant::kAllSharingPolicies) {
    const auto start = Clock::now();
    const tenant::MultiTenantResult result = run_policy(policy);
    const double ms = ms_since(start);
    std::size_t deferrals = 0;
    for (const tenant::TenantStats& stats : result.tenants)
      deferrals += stats.quota_deferrals;
    t.add_row({std::string(tenant::name_of(policy)),
               util::format_double(ms, 1),
               util::format_double(result.makespan, 1),
               std::to_string(result.pool.size()),
               result.pool.rental_cost(platform.regions()).to_string(),
               std::to_string(deferrals)});
  }
  std::cout << t.render();
  return EXIT_SUCCESS;
}
