#include "check/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "cloud/vm_billing.hpp"

namespace cloudwf::check {

util::Json OracleReport::to_json() const {
  util::Json r = util::Json::object();
  r["workflow"] = workflow;
  r["ok"] = ok();
  util::Json list = util::Json::array();
  for (const Violation& v : violations) list.push_back(v.to_json());
  r["violations"] = std::move(list);
  return r;
}

std::string OracleReport::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i) os << '\n';
    os << violations[i].invariant << ": " << violations[i].detail;
  }
  return os.str();
}

std::int64_t oracle_btus(util::Seconds span) {
  if (span <= util::kTimeEpsilon) return 1;
  return static_cast<std::int64_t>(
      std::ceil((span - util::kTimeEpsilon) / util::kBtu));
}

void rent_stop(std::vector<ReplaySession>& sessions, util::Seconds start,
               util::Seconds end) {
  if (!sessions.empty()) {
    ReplaySession& open = sessions.back();
    const util::Seconds paid_end =
        open.start +
        static_cast<util::Seconds>(oracle_btus(open.end - open.start)) *
            util::kBtu;
    if (!util::time_gt(start, paid_end)) {
      open.end = std::max(open.end, end);
      return;
    }
  }
  sessions.push_back({start, end});
}

void placement_sessions(const cloud::Vm& vm,
                        std::vector<ReplaySession>& sessions) {
  std::vector<cloud::Placement> ps(vm.placements());
  std::sort(ps.begin(), ps.end(),
            [](const cloud::Placement& x, const cloud::Placement& y) {
              return x.start < y.start;
            });
  sessions.clear();
  for (const cloud::Placement& p : ps) rent_stop(sessions, p.start, p.end);
}

namespace {

std::string task_label(const dag::Workflow& wf, dag::TaskId t) {
  return "task '" + wf.task(t).name + "' (#" + std::to_string(t) + ")";
}

struct ReplayBill {
  std::int64_t btus = 0;
  util::Money cost;
};

/// Prices one VM's re-derived sessions straight from the region table.
/// Under scenario billing the first session's meter starts at the cold-start
/// anchor (it runs while the instance provisions) and each BTU pays the
/// price fraction in force at its start; otherwise each BTU pays list price.
/// Never touches Vm::sessions() or vm_bill's arithmetic — those are what the
/// oracle certifies.
ReplayBill price_sessions(const std::vector<ReplaySession>& sessions,
                          const cloud::Vm& vm,
                          const cloud::Platform& platform) {
  const bool scenario = platform.scenario_billing_active();
  const cloud::PriceSchedule* prices = platform.price_schedule();
  const util::Seconds cold =
      scenario ? platform.cold_start_delay(vm.size(), vm.region()) : 0.0;
  const util::Money list = platform.region(vm.region()).price(vm.size());
  ReplayBill bill;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const util::Seconds anchor =
        i == 0 ? sessions[i].start - cold : sessions[i].start;
    const std::int64_t n = oracle_btus(sessions[i].end - anchor);
    bill.btus += n;
    if (scenario && prices != nullptr) {
      for (std::int64_t k = 0; k < n; ++k)
        bill.cost += list.scaled(prices->fraction_at(
            vm.size(), anchor + static_cast<util::Seconds>(k) * util::kBtu));
    } else {
      bill.cost += list * n;
    }
  }
  return bill;
}

/// The accounting invariants, run over a schedule whose assignments
/// sim::validate_into found usable.
class Checker {
 public:
  Checker(const dag::Workflow& wf, const sim::Schedule& schedule,
          const cloud::Platform& platform, std::vector<Violation>& violations)
      : wf_(wf), schedule_(schedule), platform_(platform),
        violations_(violations) {}

  void run() {
    check_boot();
    check_billing();
    check_metrics();
  }

 private:
  void complain(std::string invariant, std::string detail) {
    violations_.push_back(Violation{std::move(invariant), std::move(detail)});
  }

  /// No task may start before its VM has booted. The model boots every VM
  /// at time 0 (pre-booting, Sect. IV-A), so the first feasible start is the
  /// platform's boot delay — per (size, region) under a cold-start model,
  /// the flat boot time otherwise — for every placement, not just the first.
  void check_boot() {
    for (const cloud::Vm& vm : schedule_.pool().vms()) {
      if (!vm.used()) continue;
      const util::Seconds boot = platform_.boot_delay(vm.size(), vm.region());
      if (boot <= 0) continue;
      const cloud::Placement& first = vm.placements().front();
      if (util::time_gt(boot, first.start)) {
        std::ostringstream os;
        os << task_label(wf_, first.task) << " starts at " << first.start
           << "s on VM " << vm.id() << " before the " << boot
           << "s boot completes";
        complain("boot", os.str());
      }
    }
  }

  /// Recomputes the whole bill from raw placements: sessions re-derived by
  /// rent_stop, BTUs by the independent quantizer, prices by
  /// price_sessions — then compared with vm_bill and the pool's total.
  void check_billing() {
    const cloud::VmPool& pool = schedule_.pool();
    util::Money recomputed_total;
    bool per_vm_ok = true;
    std::vector<ReplaySession> sessions;
    for (const cloud::Vm& vm : pool.vms()) {
      placement_sessions(vm, sessions);
      const auto [btus, cost] = price_sessions(sessions, vm, platform_);

      const cloud::VmBill fast = cloud::vm_bill(vm, platform_);
      if (btus != fast.btus) {
        complain("billing", "VM " + std::to_string(vm.id()) + " bills " +
                                std::to_string(fast.btus) +
                                " BTUs but the rent/stop replay pays " +
                                std::to_string(btus));
        per_vm_ok = false;
        continue;
      }
      if (cost != fast.cost) {
        complain("billing", "VM " + std::to_string(vm.id()) + " bills " +
                                fast.cost.to_string() +
                                " but the rent/stop replay pays " +
                                cost.to_string());
        per_vm_ok = false;
        continue;
      }
      recomputed_total += cost;
    }
    const util::Money pool_total =
        platform_.scenario_billing_active()
            ? cloud::pool_rental_cost(pool, platform_)
            : pool.rental_cost(platform_.regions());
    if (per_vm_ok && recomputed_total != pool_total)
      complain("billing", "pool rental cost " + pool_total.to_string() +
                              " != independently recomputed " +
                              recomputed_total.to_string());
  }

  /// compute_metrics' aggregates, re-derived without Vm's cached busy time
  /// or the pool's summations. Money compares exactly; seconds within the
  /// schedule-time slack.
  void check_metrics() {
    if (!schedule_.complete() || !violations_.empty())
      return;  // aggregates of a broken schedule are meaningless
    const sim::ScheduleMetrics m =
        sim::compute_metrics(wf_, schedule_, platform_);

    util::Seconds makespan = 0;
    for (const dag::Task& t : wf_.tasks())
      makespan = std::max(makespan, schedule_.assignment(t.id).end);
    if (!util::time_eq(makespan, m.makespan))
      complain("metrics", "makespan " + std::to_string(m.makespan) +
                              " != recomputed " + std::to_string(makespan));

    const cloud::VmPool& pool = schedule_.pool();
    util::Seconds busy = 0;
    util::Seconds paid = 0;
    std::int64_t btus = 0;
    std::size_t used = 0;
    const bool scenario = platform_.scenario_billing_active();
    for (const cloud::Vm& vm : pool.vms()) {
      if (!vm.used()) continue;
      ++used;
      for (const cloud::Placement& p : vm.placements()) busy += p.end - p.start;
      if (scenario) {
        // Per-VM bills already certified against the raw-placement replay by
        // check_billing; here they anchor the aggregate cross-check.
        const cloud::VmBill bill = cloud::vm_bill(vm, platform_);
        btus += bill.btus;
        paid += bill.paid;
      } else {
        btus += vm.btus();  // per-VM BTUs already certified by check_billing
        paid += static_cast<util::Seconds>(vm.btus()) * util::kBtu;
      }
    }
    if (used != m.vms_used)
      complain("metrics", "vms_used " + std::to_string(m.vms_used) +
                              " != recomputed " + std::to_string(used));
    if (btus != m.total_btus)
      complain("metrics", "total_btus " + std::to_string(m.total_btus) +
                              " != recomputed " + std::to_string(btus));
    if (!util::time_eq(busy, m.total_busy))
      complain("metrics", "total_busy " + std::to_string(m.total_busy) +
                              " != recomputed " + std::to_string(busy));
    if (!util::time_eq(paid - busy, m.total_idle))
      complain("metrics", "total_idle " + std::to_string(m.total_idle) +
                              " != recomputed " + std::to_string(paid - busy));
    const double utilization = paid > 0 ? busy / paid : 0.0;
    if (std::abs(utilization - m.utilization) > 1e-9)
      complain("metrics", "utilization " + std::to_string(m.utilization) +
                              " != recomputed " + std::to_string(utilization));

    // Egress: per-source-region volumes over all cross-region edges, billed
    // in the (1 GB, 10 TB] band at the source's transfer-out price.
    std::vector<util::Gigabytes> egress(platform_.regions().size(), 0.0);
    for (const dag::Edge& e : wf_.edges()) {
      const cloud::Vm& vf = pool.vm(schedule_.assignment(e.from).vm);
      const cloud::Vm& vt = pool.vm(schedule_.assignment(e.to).vm);
      if (vf.region() != vt.region())
        egress[vf.region()] += wf_.edge_data(e.from, e.to);
    }
    util::Money egress_cost;
    for (std::size_t r = 0; r < egress.size(); ++r) {
      constexpr util::Gigabytes kFree = 1.0;
      constexpr util::Gigabytes kCap = 10.0 * 1024.0;
      util::Gigabytes billable = 0.0;
      if (egress[r] > kFree) billable = std::min(egress[r], kCap) - kFree;
      egress_cost += platform_.region(static_cast<cloud::RegionId>(r))
                         .transfer_out_per_gb.scaled(billable);
    }
    if (egress_cost != m.egress_cost)
      complain("metrics", "egress_cost " + m.egress_cost.to_string() +
                              " != recomputed " + egress_cost.to_string());
    if (m.vm_cost + m.egress_cost != m.total_cost)
      complain("metrics", "total_cost " + m.total_cost.to_string() +
                              " != vm_cost + egress_cost");
  }

  const dag::Workflow& wf_;
  const sim::Schedule& schedule_;
  const cloud::Platform& platform_;
  std::vector<Violation>& violations_;
};

}  // namespace

OracleReport check_schedule(const dag::Workflow& wf,
                            const sim::Schedule& schedule,
                            const cloud::Platform& platform) {
  OracleReport report;
  report.workflow = wf.name();
  if (sim::validate_into(wf, schedule, platform, report.violations))
    Checker(wf, schedule, platform, report.violations).run();
  return report;
}

ReplayAudit check_faulty_replay(const dag::Workflow& wf,
                                const sim::Schedule& schedule,
                                const cloud::Platform& platform,
                                const sim::FaultyReplayResult& replay) {
  ReplayAudit audit;
  audit.report.workflow = wf.name();
  const auto complain = [&audit](std::string invariant, std::string detail) {
    audit.report.violations.push_back(
        Violation{std::move(invariant), std::move(detail)});
  };

  const std::size_t n = wf.task_count();
  if (replay.tasks.size() != n) {
    complain("replay-size",
             "replay holds " + std::to_string(replay.tasks.size()) +
                 " intervals for " + std::to_string(n) + " tasks");
    return audit;  // per-task checks would index out of bounds
  }

  const cloud::VmPool& pool = schedule.pool();

  // Durations: an interval is the final attempt plus every failed attempt
  // and detection delay before it — never shorter than the planned
  // execution time, and exactly it when nothing failed. The per-task
  // excesses must sum to the reported time_lost (nothing lost untracked).
  util::Seconds total_stretch = 0;
  for (const dag::Task& t : wf.tasks()) {
    const sim::ReplayedTask& r = replay.tasks[t.id];
    const cloud::Vm& vm = pool.vm(schedule.assignment(t.id).vm);
    const util::Seconds planned = cloud::exec_time(t.work, vm.size());
    const util::Seconds replayed = r.end - r.start;
    if (util::time_gt(planned, replayed)) {
      std::ostringstream os;
      os << task_label(wf, t.id) << " replayed in " << replayed
         << "s, shorter than the planned " << planned << "s";
      complain("replay-duration", os.str());
    } else if (replay.failures == 0 && !util::time_eq(replayed, planned)) {
      std::ostringstream os;
      os << task_label(wf, t.id) << " stretched to " << replayed
         << "s with zero failures (planned " << planned << "s)";
      complain("replay-duration", os.str());
    }
    total_stretch += replayed - planned;
  }
  if (!util::time_eq(total_stretch, replay.time_lost))
    complain("replay-accounting",
             "intervals carry " + std::to_string(total_stretch) +
                 "s of stretch but time_lost reports " +
                 std::to_string(replay.time_lost) + "s");

  // Faults only push work later: the fault-free replay of the same mapping
  // is a per-task lower bound on both endpoints.
  const sim::ReplayResult baseline =
      sim::EventSimulator(platform).replay(wf, schedule);
  for (const dag::Task& t : wf.tasks()) {
    const sim::ReplayedTask& r = replay.tasks[t.id];
    const sim::ReplayedTask& b = baseline.tasks[t.id];
    if (util::time_gt(b.start, r.start) || util::time_gt(b.end, r.end)) {
      std::ostringstream os;
      os << task_label(wf, t.id) << " replays at [" << r.start << ", " << r.end
         << "]s, earlier than the fault-free [" << b.start << ", " << b.end
         << "]s";
      complain("replay-monotonic", os.str());
    }
  }

  // Per-VM: planned placement order preserved, no overlap between the
  // stretched intervals, and the bill re-derived from them (rent/stop
  // session segmentation, Table II prices — with the cold-start anchor and
  // per-BTU price fractions applied when scenario billing is installed).
  std::vector<ReplaySession> sessions;
  for (const cloud::Vm& vm : pool.vms()) {
    const auto& ps = vm.placements();
    sessions.clear();
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const sim::ReplayedTask& cur = replay.tasks[ps[i].task];
      audit.replayed_busy += cur.end - cur.start;
      if (i > 0) {
        const sim::ReplayedTask& prev = replay.tasks[ps[i - 1].task];
        if (util::time_gt(prev.start, cur.start))
          complain("replay-order",
                   "VM " + std::to_string(vm.id()) + ": " +
                       task_label(wf, ps[i].task) + " replays before " +
                       task_label(wf, ps[i - 1].task));
        if (util::time_gt(prev.end, cur.start))
          complain("replay-overlap",
                   "VM " + std::to_string(vm.id()) + ": " +
                       task_label(wf, ps[i - 1].task) + " overlaps " +
                       task_label(wf, ps[i].task));
      }
      rent_stop(sessions, cur.start, cur.end);
    }
    const ReplayBill bill = price_sessions(sessions, vm, platform);
    audit.replayed_btus += bill.btus;
    audit.replayed_vm_cost += bill.cost;
  }

  // Precedence across the stretched timeline, transfers included.
  for (const dag::Edge& e : wf.edges()) {
    const sim::ReplayedTask& from = replay.tasks[e.from];
    const sim::ReplayedTask& to = replay.tasks[e.to];
    const util::Seconds transfer = platform.transfer_time(
        wf.edge_data(e.from, e.to), pool.vm(schedule.assignment(e.from).vm),
        pool.vm(schedule.assignment(e.to).vm));
    if (util::time_gt(from.end + transfer, to.start)) {
      std::ostringstream os;
      os << task_label(wf, e.to) << " replays at " << to.start << "s but "
         << task_label(wf, e.from) << " finishes at " << from.end
         << "s + transfer " << transfer << "s";
      complain("replay-precedence", os.str());
    }
  }

  util::Seconds makespan = 0;
  for (const sim::ReplayedTask& r : replay.tasks)
    makespan = std::max(makespan, r.end);
  if (!util::time_eq(makespan, replay.makespan))
    complain("replay-makespan",
             "reported makespan " + std::to_string(replay.makespan) +
                 "s != max interval end " + std::to_string(makespan) + "s");

  return audit;
}

}  // namespace cloudwf::check
