#include "sim/validator.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace cloudwf::sim {

util::Json Violation::to_json() const {
  util::Json v = util::Json::object();
  v["invariant"] = invariant;
  v["detail"] = detail;
  return v;
}

namespace {

std::string task_label(const dag::Workflow& wf, dag::TaskId t) {
  return "task '" + wf.task(t).name + "' (#" + std::to_string(t) + ")";
}

}  // namespace

bool validate_into(const dag::Workflow& wf, const Schedule& schedule,
                   const cloud::Platform& platform,
                   std::vector<Violation>& out) {
  const auto complain = [&out](const char* invariant, std::string detail) {
    out.push_back(Violation{invariant, std::move(detail)});
  };

  if (schedule.task_count() != wf.task_count()) {
    complain("assignment",
             "schedule sized for " + std::to_string(schedule.task_count()) +
                 " tasks but workflow has " + std::to_string(wf.task_count()));
    return false;
  }

  const cloud::VmPool& pool = schedule.pool();

  // Assignment sanity and duration correctness.
  bool usable = true;
  for (const dag::Task& t : wf.tasks()) {
    if (!schedule.is_assigned(t.id)) {
      complain("assignment", task_label(wf, t.id) + " is unassigned");
      usable = false;
      continue;
    }
    const Assignment& a = schedule.assignment(t.id);
    if (a.vm >= pool.size()) {
      complain("assignment", task_label(wf, t.id) +
                                 " assigned to nonexistent VM " +
                                 std::to_string(a.vm));
      usable = false;
      continue;
    }
    if (!std::isfinite(a.start) || !std::isfinite(a.end)) {
      complain("assignment",
               task_label(wf, t.id) + " has non-finite start/end");
      usable = false;
      continue;
    }
    if (a.start < -util::kTimeEpsilon)
      complain("assignment", task_label(wf, t.id) + " starts before time 0");
    if (a.end < a.start - util::kTimeEpsilon)
      complain("assignment", task_label(wf, t.id) + " ends before it starts");
    const cloud::Vm& vm = pool.vm(a.vm);
    const util::Seconds expected = cloud::exec_time(t.work, vm.size());
    if (!util::time_eq(a.duration(), expected)) {
      std::ostringstream os;
      os << task_label(wf, t.id) << " duration " << a.duration()
         << "s != work/speedup = " << expected << "s on "
         << cloud::name_of(vm.size());
      complain("duration", os.str());
    }
  }
  if (!usable) return false;  // later checks need valid assignments

  // Task table vs VM timelines: every placement mirrors an assignment and
  // vice versa.
  std::size_t placement_count = 0;
  for (const cloud::Vm& vm : pool.vms()) {
    for (const cloud::Placement& p : vm.placements()) {
      ++placement_count;
      if (p.task >= wf.task_count()) {
        complain("table-timeline", "VM " + std::to_string(vm.id()) +
                                       " hosts nonexistent task #" +
                                       std::to_string(p.task));
        continue;
      }
      const Assignment& a = schedule.assignment(p.task);
      if (a.vm != vm.id() || !util::time_eq(a.start, p.start) ||
          !util::time_eq(a.end, p.end))
        complain("table-timeline",
                 task_label(wf, p.task) + " placement on VM " +
                     std::to_string(vm.id()) +
                     " disagrees with the task table");
    }
  }
  if (placement_count != wf.task_count())
    complain("table-timeline",
             "VM timelines hold " + std::to_string(placement_count) +
                 " placements for " + std::to_string(wf.task_count()) +
                 " tasks");

  // Exclusivity: walked in timeline (append) order, the order
  // EventSimulator replays, each placement must start no earlier than the
  // latest end before it — Vm::place's own rule.
  for (const cloud::Vm& vm : pool.vms()) {
    const cloud::Placement* latest = nullptr;  // holds the latest end so far
    for (const cloud::Placement& p : vm.placements()) {
      if (latest != nullptr && cloud::overlaps_timeline(latest->end, p.start))
        complain("overlap", "VM " + std::to_string(vm.id()) + ": " +
                                task_label(wf, latest->task) + " overlaps " +
                                task_label(wf, p.task));
      if (latest == nullptr || p.end > latest->end) latest = &p;
    }
  }

  // Precedence with transfers on the assigned endpoints.
  for (const dag::Edge& e : wf.edges()) {
    const Assignment& from = schedule.assignment(e.from);
    const Assignment& to = schedule.assignment(e.to);
    const util::Seconds transfer = platform.transfer_time(
        wf.edge_data(e.from, e.to), pool.vm(from.vm), pool.vm(to.vm));
    if (util::time_gt(from.end + transfer, to.start)) {
      std::ostringstream os;
      os << task_label(wf, e.to) << " starts at " << to.start << "s but "
         << task_label(wf, e.from) << " finishes at " << from.end
         << "s + transfer " << transfer << "s";
      complain("precedence", os.str());
    }
  }

  return true;
}

std::vector<Violation> validate(const dag::Workflow& wf,
                                const Schedule& schedule,
                                const cloud::Platform& platform) {
  std::vector<Violation> issues;
  (void)validate_into(wf, schedule, platform, issues);
  return issues;
}

void validate_or_throw(const dag::Workflow& wf, const Schedule& schedule,
                       const cloud::Platform& platform) {
  const std::vector<Violation> issues = validate(wf, schedule, platform);
  if (issues.empty()) return;
  std::ostringstream os;
  os << "infeasible schedule for workflow '" << wf.name() << "':";
  for (const Violation& v : issues)
    os << "\n  - " << v.invariant << ": " << v.detail;
  throw std::logic_error(os.str());
}

}  // namespace cloudwf::sim
