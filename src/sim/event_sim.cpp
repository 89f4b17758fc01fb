#include "sim/event_sim.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "obs/trace.hpp"

namespace cloudwf::sim {

namespace {
struct Event {
  util::Seconds time = 0;
  dag::TaskId task = dag::kInvalidTask;

  // Min-heap on time; task id breaks ties deterministically.
  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.task > b.task;
  }
};
}  // namespace

ReplayResult EventSimulator::replay(const dag::Workflow& wf,
                                    const Schedule& schedule) const {
  if (!schedule.complete())
    throw std::logic_error("EventSimulator::replay: incomplete schedule");
  std::vector<util::Seconds> durations(wf.task_count());
  for (const dag::Task& t : wf.tasks())
    durations[t.id] = cloud::exec_time(
        t.work, schedule.pool().vm(schedule.assignment(t.id).vm).size());
  return replay(wf, schedule, durations);
}

ReplayResult EventSimulator::replay(
    const dag::Workflow& wf, const Schedule& schedule,
    std::span<const util::Seconds> durations) const {
  if (!schedule.complete())
    throw std::logic_error("EventSimulator::replay: incomplete schedule");
  if (durations.size() != wf.task_count())
    throw std::invalid_argument("EventSimulator::replay: durations size mismatch");

  const std::size_t n = wf.task_count();
  const cloud::VmPool& pool = schedule.pool();

  // Per-VM task order, taken from the static placement sequence.
  std::vector<dag::TaskId> prev_on_vm(n, dag::kInvalidTask);
  for (const cloud::Vm& vm : pool.vms()) {
    const auto& ps = vm.placements();
    for (std::size_t i = 1; i < ps.size(); ++i)
      prev_on_vm[ps[i].task] = ps[i - 1].task;
  }

  // Constraint counting: predecessors + optional same-VM predecessor. A
  // task is never ready before its own VM's boot completes (per-(size,
  // region) under a cold-start model; the flat boot time otherwise).
  std::vector<std::size_t> waiting(n, 0);
  std::vector<util::Seconds> ready_at(n, 0.0);
  for (const dag::Task& t : wf.tasks()) {
    const cloud::Vm& vm = pool.vm(schedule.assignment(t.id).vm);
    ready_at[t.id] = platform_->boot_delay(vm.size(), vm.region());
    waiting[t.id] = wf.predecessors(t.id).size();
    if (prev_on_vm[t.id] != dag::kInvalidTask) ++waiting[t.id];
  }

  ReplayResult result;
  result.tasks.assign(n, ReplayedTask{});

  // Boot events first: every used VM boots over [0, boot_delay), strictly
  // before any of its task starts in both time and stream order.
  if (obs::enabled()) {
    for (const cloud::Vm& vm : pool.vms())
      if (vm.used())
        obs::emit_vm_boot(vm.id(), platform_->boot_delay(vm.size(), vm.region()));
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> finish_events;

  auto start_task = [&](dag::TaskId t) {
    result.tasks[t].start = ready_at[t];
    result.tasks[t].end = ready_at[t] + durations[t];
    obs::emit_task_start(t, schedule.assignment(t).vm, result.tasks[t].start);
    finish_events.push(Event{result.tasks[t].end, t});
    obs::note_queue_depth(finish_events.size());
  };

  for (const dag::Task& t : wf.tasks())
    if (waiting[t.id] == 0) start_task(t.id);

  // Successor lists for "next on same VM" constraints.
  std::vector<dag::TaskId> next_on_vm(n, dag::kInvalidTask);
  for (const cloud::Vm& vm : pool.vms()) {
    const auto& ps = vm.placements();
    for (std::size_t i = 1; i < ps.size(); ++i)
      next_on_vm[ps[i - 1].task] = ps[i].task;
  }

  auto post_constraint = [&](dag::TaskId t, util::Seconds available) {
    ready_at[t] = std::max(ready_at[t], available);
    if (--waiting[t] == 0) start_task(t);
  };

  while (!finish_events.empty()) {
    const Event ev = finish_events.top();
    finish_events.pop();
    ++result.events_processed;
    result.makespan = std::max(result.makespan, ev.time);

    const cloud::Vm& from_vm = pool.vm(schedule.assignment(ev.task).vm);
    obs::emit_task_finish(ev.task, from_vm.id(), ev.time);
    for (dag::TaskId s : wf.successors(ev.task)) {
      const cloud::Vm& to_vm = pool.vm(schedule.assignment(s).vm);
      const util::Gigabytes data = wf.edge_data(ev.task, s);
      const util::Seconds transfer =
          platform_->transfer_time(data, from_vm, to_vm);
      obs::emit_transfer(ev.task, s, ev.time, transfer, data);
      post_constraint(s, ev.time + transfer);
    }
    if (next_on_vm[ev.task] != dag::kInvalidTask)
      post_constraint(next_on_vm[ev.task], ev.time);
  }

  // Every task must have run: the schedule's VM orders cannot deadlock with
  // the DAG (the validator checks this statically; belt and braces here).
  for (std::size_t i = 0; i < n; ++i) {
    if (result.tasks[i].end <= 0 && wf.task(static_cast<dag::TaskId>(i)).work > 0 &&
        waiting[i] != 0)
      throw std::logic_error(
          "EventSimulator::replay: deadlock — VM order conflicts with DAG order");
  }
  return result;
}

}  // namespace cloudwf::sim
