#include "check/mt_oracle.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "dag/structure_cache.hpp"
#include "tenant/billing.hpp"

namespace cloudwf::check {

namespace {

class MtChecker {
 public:
  MtChecker(const tenant::TenantRegistry& registry,
            std::span<const tenant::JobSpec> jobs,
            const tenant::MultiTenantResult& result,
            const cloud::Platform& platform)
      : registry_(registry), jobs_(jobs), result_(result), platform_(platform) {
    report_.workflow = "multi-tenant pool (" + std::to_string(jobs.size()) +
                       " jobs, " + std::to_string(registry.size()) +
                       " tenants, " +
                       std::string(tenant::name_of(result.config.policy)) +
                       ")";
  }

  OracleReport run() {
    check_assignment();
    check_duration();
    check_precedence_and_release();
    check_timeline();
    check_overlap();
    check_quota();
    check_isolation();
    check_billing();
    return std::move(report_);
  }

 private:
  void complain(std::string invariant, std::string detail) {
    report_.violations.push_back({std::move(invariant), std::move(detail)});
  }

  [[nodiscard]] std::string task_label(std::size_t j, dag::TaskId t) const {
    return "job " + std::to_string(j) + " task " + std::to_string(t);
  }

  void check_assignment() {
    const std::size_t pool_size = result_.pool.size();
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const std::size_t count = jobs_[j].workflow.task_count();
      if (result_.jobs[j].tasks.size() != count) {
        complain("assignment", "job " + std::to_string(j) + " table has " +
                                   std::to_string(result_.jobs[j].tasks.size()) +
                                   " rows for " + std::to_string(count) +
                                   " tasks");
        continue;
      }
      for (dag::TaskId t = 0; t < count; ++t) {
        const sim::Assignment& a = result_.jobs[j].tasks[t];
        if (!a.valid())
          complain("assignment", task_label(j, t) + " never assigned");
        else if (a.vm >= pool_size)
          complain("assignment", task_label(j, t) + " on nonexistent VM " +
                                     std::to_string(a.vm));
      }
    }
  }

  void check_duration() {
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      for (dag::TaskId t = 0; t < result_.jobs[j].tasks.size(); ++t) {
        const sim::Assignment& a = result_.jobs[j].tasks[t];
        if (!a.valid() || a.vm >= result_.pool.size()) continue;
        const util::Seconds expect = cloud::exec_time(
            result_.jobs[j].actual_works[t], result_.pool.vm(a.vm).size());
        // Compare as the dispatcher computed it (end = start + exec):
        // duration() re-subtracts and is not bitwise-stable.
        if (a.end != a.start + expect) {
          std::ostringstream os;
          os << task_label(j, t) << " ends at " << a.end
             << "s but start + actual execution is " << a.start + expect
             << "s";
          complain("duration", os.str());
        }
      }
    }
  }

  void check_precedence_and_release() {
    const util::Seconds boot = platform_.boot_time();
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const auto sc = jobs_[j].workflow.structure();
      for (dag::TaskId t = 0; t < result_.jobs[j].tasks.size(); ++t) {
        const sim::Assignment& a = result_.jobs[j].tasks[t];
        if (!a.valid() || a.vm >= result_.pool.size()) continue;
        if (util::time_gt(boot, a.start))
          complain("release", task_label(j, t) + " starts before boot");
        if (util::time_gt(jobs_[j].arrival, a.start))
          complain("release", task_label(j, t) +
                                  " starts before its job's arrival at " +
                                  std::to_string(jobs_[j].arrival) + "s");
        const std::span<const dag::TaskId> preds = sc->preds(t);
        const std::span<const util::Gigabytes> data = sc->pred_data(t);
        for (std::size_t i = 0; i < preds.size(); ++i) {
          const sim::Assignment& pa = result_.jobs[j].tasks[preds[i]];
          if (!pa.valid() || pa.vm >= result_.pool.size()) continue;
          const util::Seconds transfer = platform_.transfer_time(
              data[i], result_.pool.vm(pa.vm), result_.pool.vm(a.vm));
          if (util::time_gt(pa.end + transfer, a.start)) {
            std::ostringstream os;
            os << task_label(j, t) << " starts at " << a.start
               << "s before predecessor " << preds[i] << " + transfer ends at "
               << pa.end + transfer << "s";
            complain("precedence", os.str());
          }
        }
      }
    }
  }

  /// The pool timeline and the per-job tables must be two views of one
  /// schedule: every global task id placed exactly once, bitwise equal.
  void check_timeline() {
    std::map<dag::TaskId, std::pair<cloud::VmId, std::pair<util::Seconds, util::Seconds>>>
        placed;
    for (const cloud::Vm& vm : result_.pool.vms()) {
      for (const cloud::Placement& p : vm.placements()) {
        if (!placed.emplace(p.task, std::make_pair(vm.id(), std::make_pair(
                                                                p.start, p.end)))
                 .second)
          complain("table-timeline", "global task " + std::to_string(p.task) +
                                         " placed more than once");
      }
    }
    std::size_t expected = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      for (dag::TaskId t = 0; t < result_.jobs[j].tasks.size(); ++t) {
        const sim::Assignment& a = result_.jobs[j].tasks[t];
        if (!a.valid()) continue;
        ++expected;
        const dag::TaskId global = result_.task_base[j] + t;
        const auto it = placed.find(global);
        if (it == placed.end()) {
          complain("table-timeline", task_label(j, t) +
                                         " missing from the pool timeline");
          continue;
        }
        if (it->second.first != a.vm || it->second.second.first != a.start ||
            it->second.second.second != a.end)
          complain("table-timeline",
                   task_label(j, t) + " disagrees with the pool timeline");
      }
    }
    if (placed.size() != expected)
      complain("table-timeline",
               "pool timeline holds " + std::to_string(placed.size()) +
                   " placements for " + std::to_string(expected) +
                   " assigned tasks");
  }

  void check_overlap() {
    for (const cloud::Vm& vm : result_.pool.vms()) {
      std::vector<cloud::Placement> ps(vm.placements());
      std::sort(ps.begin(), ps.end(),
                [](const cloud::Placement& x, const cloud::Placement& y) {
                  return x.start < y.start;
                });
      for (std::size_t i = 1; i < ps.size(); ++i) {
        if (util::time_gt(ps[i - 1].end, ps[i].start)) {
          std::ostringstream os;
          os << "VM " << vm.id() << ": global tasks " << ps[i - 1].task
             << " and " << ps[i].task << " overlap";
          complain("overlap", os.str());
        }
      }
    }
  }

  /// Interval sweep over raw placements: at no instant may a tenant run
  /// more tasks than its quota. Ends sort before starts at the same time —
  /// a completion frees its slot for a task starting that very instant.
  void check_quota() {
    struct Edge {
      util::Seconds time;
      int delta;  // -1 end, +1 start (sort key: ends first)
    };
    std::vector<std::vector<Edge>> edges(registry_.size());
    for (const cloud::Vm& vm : result_.pool.vms()) {
      for (const cloud::Placement& p : vm.placements()) {
        const tenant::TenantId tid = result_.tenant_of(p.task, jobs_);
        edges[tid].push_back({p.start, +1});
        edges[tid].push_back({p.end, -1});
      }
    }
    for (tenant::TenantId tid = 0; tid < registry_.size(); ++tid) {
      std::sort(edges[tid].begin(), edges[tid].end(),
                [](const Edge& a, const Edge& b) {
                  if (a.time != b.time) return a.time < b.time;
                  return a.delta < b.delta;
                });
      std::size_t running = 0;
      const std::size_t quota = registry_.spec(tid).max_running;
      for (const Edge& e : edges[tid]) {
        if (e.delta > 0) {
          if (++running > quota) {
            std::ostringstream os;
            os << "tenant " << registry_.spec(tid).name << " runs " << running
               << " tasks at " << e.time << "s, over its quota of " << quota;
            complain("quota", os.str());
            break;
          }
        } else {
          --running;
        }
      }
    }
  }

  void check_isolation() {
    if (result_.config.policy != tenant::SharingPolicy::exclusive) return;
    if (result_.vm_owner.size() != result_.pool.size()) {
      complain("isolation", "vm_owner table size mismatch");
      return;
    }
    for (const cloud::Vm& vm : result_.pool.vms()) {
      for (const cloud::Placement& p : vm.placements()) {
        const tenant::TenantId tid = result_.tenant_of(p.task, jobs_);
        if (tid != result_.vm_owner[vm.id()]) {
          std::ostringstream os;
          os << "exclusive policy: global task " << p.task << " of tenant "
             << tid << " placed on VM " << vm.id() << " owned by tenant "
             << result_.vm_owner[vm.id()];
          complain("isolation", os.str());
        }
      }
    }
  }

  /// Per-VM BTUs re-derived by the rent/stop replay, then the attributor's
  /// per-tenant bills recomposed against the pool's own rental cost.
  void check_billing() {
    std::vector<ReplaySession> sessions;
    for (const cloud::Vm& vm : result_.pool.vms()) {
      placement_sessions(vm, sessions);
      std::int64_t btus = 0;
      for (const ReplaySession& session : sessions)
        btus += oracle_btus(session.end - session.start);
      if (btus != vm.btus())
        complain("billing", "VM " + std::to_string(vm.id()) + " bills " +
                                std::to_string(vm.btus()) +
                                " BTUs but the rent/stop replay pays " +
                                std::to_string(btus));
    }

    const tenant::BillingBreakdown bill = tenant::attribute_billing(
        result_.pool, platform_.regions(), registry_,
        [this](dag::TaskId global) { return result_.tenant_of(global, jobs_); });
    const util::Money pool_total =
        result_.pool.rental_cost(platform_.regions());
    if (bill.total != pool_total)
      complain("billing", "attributed bills total " + bill.total.to_string() +
                              " != pool rental cost " +
                              pool_total.to_string());
    util::Money resum;
    for (const tenant::TenantBill& b : bill.bills) resum = resum + b.cost;
    if (resum != bill.total)
      complain("billing", "breakdown total " + bill.total.to_string() +
                              " != sum of its own bills " + resum.to_string());
  }

  const tenant::TenantRegistry& registry_;
  std::span<const tenant::JobSpec> jobs_;
  const tenant::MultiTenantResult& result_;
  const cloud::Platform& platform_;
  OracleReport report_;
};

}  // namespace

OracleReport check_multi_tenant(const tenant::TenantRegistry& registry,
                                std::span<const tenant::JobSpec> jobs,
                                const tenant::MultiTenantResult& result,
                                const cloud::Platform& platform) {
  return MtChecker(registry, jobs, result, platform).run();
}

}  // namespace cloudwf::check
