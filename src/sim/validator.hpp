// Structural feasibility checker for schedules: the one implementation of
// the five structural invariants. check::check_schedule (check/oracle.hpp)
// runs it first and adds the accounting invariants (boot, billing, metrics).
//
// Deliberately re-derives every constraint from the raw data (it does not
// trust Vm/Schedule invariants), so scheduler bugs cannot hide behind the
// container's own bookkeeping. Each violation carries a stable code:
//
//   assignment      every task assigned exactly once, to an existing VM,
//                   with finite times, starting no earlier than 0 and not
//                   ending before it starts;
//   duration        task duration == work / speedup(size) on its VM;
//   table-timeline  the task table and the VM placement timelines agree
//                   (and no VM hosts a nonexistent task);
//   overlap         placements on one VM never overlap (exclusive VMs);
//   precedence      start(t) >= finish(p) + transfer(p -> t) on the
//                   assigned endpoints, for every edge.
#pragma once

#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "dag/workflow.hpp"
#include "sim/schedule.hpp"
#include "util/json.hpp"

namespace cloudwf::sim {

/// One broken invariant. `invariant` is a stable machine-readable code;
/// `detail` is the human-readable specifics.
struct Violation {
  std::string invariant;
  std::string detail;

  [[nodiscard]] util::Json to_json() const;
};

/// Appends the structural violations of `schedule` to `out`. Returns false
/// when some assignment is unusable (table size mismatch, unassigned task,
/// nonexistent VM or non-finite times): the table-timeline, overlap and
/// precedence checks would read invalid assignments and are skipped.
bool validate_into(const dag::Workflow& wf, const Schedule& schedule,
                   const cloud::Platform& platform,
                   std::vector<Violation>& out);

/// The structural violations of `schedule` (empty means feasible).
[[nodiscard]] std::vector<Violation> validate(const dag::Workflow& wf,
                                              const Schedule& schedule,
                                              const cloud::Platform& platform);

/// Throws std::logic_error listing all violations if the schedule is infeasible.
void validate_or_throw(const dag::Workflow& wf, const Schedule& schedule,
                       const cloud::Platform& platform);

}  // namespace cloudwf::sim
