// Schedule-invariant oracle: the complete, independent feasibility +
// accounting checker behind the correctness harness.
//
// check_schedule runs sim::validate's five structural invariants
// (sim/validator.hpp: assignment, duration, table-timeline, overlap,
// precedence) and, when every assignment is usable, re-derives the
// accounting invariants the paper's comparison rests on (Sect. II/IV-A)
// from raw placements and prices. Violations are machine-readable, so the
// differential engine, the fuzz drivers and CI can gate on them:
//
//   boot            no task starts before the platform's boot delay;
//   billing         BTU cost recomputed from raw placements (session
//                   segmentation + Table II prices) == the pool's answer;
//   metrics         compute_metrics' aggregates == independent recomputes
//                   (makespan, busy/idle/paid seconds, BTUs, egress, total).
//
// None of the checks consult Vm::Session, VmPool's indices or the
// StructureCache — a bug in any of those caches cannot hide from the oracle.
// The BTU quantizer and the rent/stop session segmentation below are the
// ones every bill replay in check/ uses (this oracle, check_faulty_replay
// and check/mt_oracle).
//
// check_faulty_replay extends the oracle to fault-injected replays
// (sim/faults.hpp): the retry-stretched intervals must still respect
// overlap, same-VM order and precedence+transfer, dominate the fault-free
// replay point-for-point, and account for every lost second — and the bill
// is re-derived from the stretched placements with the same rent/stop rule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "dag/workflow.hpp"
#include "sim/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/schedule.hpp"
#include "sim/validator.hpp"
#include "util/json.hpp"

namespace cloudwf::check {

/// One broken invariant: a stable code from the lists above (or
/// sim/validator.hpp's) plus the human-readable specifics.
using Violation = sim::Violation;

/// Result of running the oracle over one (workflow, schedule) pair.
struct OracleReport {
  std::string workflow;
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] util::Json to_json() const;

  /// "invariant: detail" lines joined with newlines (empty when ok).
  [[nodiscard]] std::string to_string() const;
};

/// Runs every invariant check against `schedule`. Never throws on an
/// infeasible schedule — infeasibility is the report's payload. (It does
/// propagate std::bad_alloc and the like.)
[[nodiscard]] OracleReport check_schedule(const dag::Workflow& wf,
                                          const sim::Schedule& schedule,
                                          const cloud::Platform& platform);

/// The oracle's BTU quantizer — deliberately not cloud::btus_for, so a
/// regression there is caught rather than mirrored. Spec (Sect. IV-A): a
/// started rental pays at least one whole 3600 s unit; spans on a BTU
/// boundary (within the schedule-time slack) pay exactly that many.
[[nodiscard]] std::int64_t oracle_btus(util::Seconds span);

/// One rental session re-derived from raw run intervals.
struct ReplaySession {
  util::Seconds start = 0;
  util::Seconds end = 0;
};

/// Rent/stop session segmentation, fed one VM's run intervals one at a time
/// in run order. An interval that starts past the open session's paid
/// window (oracle_btus whole BTUs from the session's start) means the VM was
/// stopped at that boundary and rented anew: it opens a new session. Any
/// other interval extends the open session.
void rent_stop(std::vector<ReplaySession>& sessions, util::Seconds start,
               util::Seconds end);

/// Replaces `sessions` with rent_stop over `vm`'s placements in start order
/// (sorted here, not trusted from the timeline's append order).
void placement_sessions(const cloud::Vm& vm,
                        std::vector<ReplaySession>& sessions);

/// check_faulty_replay's result: the violation report plus the bill
/// re-derived from the retry-stretched intervals (sessions segmented by the
/// same rent/stop rule the billing check uses, priced from the region
/// table). The derived figures let callers compare a fault scenario's cost
/// against the planned schedule's without trusting any simulator cache.
struct ReplayAudit {
  OracleReport report;
  std::int64_t replayed_btus = 0;    ///< BTUs from stretched sessions
  util::Money replayed_vm_cost;      ///< those BTUs priced per VM region
  util::Seconds replayed_busy = 0;   ///< sum of stretched attempt intervals

  [[nodiscard]] bool ok() const noexcept { return report.ok(); }
};

/// Audits one fault-injected replay of `schedule` (same workflow/platform).
/// Invariants, all derived from raw replayed intervals:
///
///   replay-size        one interval per workflow task;
///   replay-duration    every interval at least the planned duration, and
///                      exactly it when the replay saw zero failures;
///   replay-monotonic   start/end never earlier than the fault-free replay
///                      of the same mapping (faults only push work later);
///   replay-overlap     stretched intervals on one VM still never overlap;
///   replay-order       each VM runs its tasks in the planned order;
///   replay-precedence  start(t) >= end(p) + transfer for every edge;
///   replay-makespan    the reported makespan is the max interval end;
///   replay-accounting  total stretch over planned durations == time_lost.
[[nodiscard]] ReplayAudit check_faulty_replay(
    const dag::Workflow& wf, const sim::Schedule& schedule,
    const cloud::Platform& platform, const sim::FaultyReplayResult& replay);

}  // namespace cloudwf::check
