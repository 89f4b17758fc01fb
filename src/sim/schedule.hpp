// Schedule: the product of every scheduler — a VM pool plus, for each task,
// the VM it runs on and its start/finish times.
//
// The task table and the VMs' placement timelines are kept in sync by
// construction: `assign` writes both. The structural feasibility checker
// lives in sim/validator.hpp (check/oracle.hpp adds boot, billing and
// metrics on top) and the event-driven replay in sim/event_sim.hpp.
#pragma once

#include <vector>

#include "cloud/platform.hpp"
#include "cloud/vm.hpp"
#include "dag/workflow.hpp"

namespace cloudwf::sim {

struct Assignment {
  cloud::VmId vm = cloud::kInvalidVm;
  util::Seconds start = 0;
  util::Seconds end = 0;

  [[nodiscard]] bool valid() const noexcept { return vm != cloud::kInvalidVm; }
  [[nodiscard]] util::Seconds duration() const noexcept { return end - start; }
};

class Schedule {
 public:
  explicit Schedule(std::size_t task_count) : assignments_(task_count) {}
  explicit Schedule(const dag::Workflow& wf) : Schedule(wf.task_count()) {}

  /// Rents a fresh VM and returns its id.
  cloud::VmId rent(cloud::InstanceSize size, cloud::RegionId region);

  /// Assigns a task to a VM over [start, end). The task must be unassigned
  /// and the interval must append to the VM's timeline (see Vm::place).
  void assign(dag::TaskId task, cloud::VmId vm, util::Seconds start,
              util::Seconds end);

  [[nodiscard]] std::size_t task_count() const noexcept {
    return assignments_.size();
  }
  [[nodiscard]] bool is_assigned(dag::TaskId t) const;
  [[nodiscard]] const Assignment& assignment(dag::TaskId t) const;
  [[nodiscard]] std::size_t assigned_count() const noexcept;
  [[nodiscard]] bool complete() const noexcept {
    return assigned_count() == assignments_.size();
  }

  [[nodiscard]] const cloud::VmPool& pool() const noexcept { return pool_; }
  [[nodiscard]] cloud::VmPool& pool() noexcept { return pool_; }

  /// Latest finish time over all assigned tasks (0 for an empty schedule).
  [[nodiscard]] util::Seconds makespan() const noexcept;

  /// Drops all assignments and all placements, keeping the rented VMs with
  /// their sizes (the upgrade schedulers resize then retime).
  void clear_assignments() noexcept;

 private:
  std::vector<Assignment> assignments_;
  cloud::VmPool pool_;
};

}  // namespace cloudwf::sim
