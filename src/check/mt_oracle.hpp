// Multi-tenant schedule oracle: the independent checker for shared-pool
// runs (tenant::run_shared_pool), extending check/oracle's philosophy —
// re-derive every invariant from raw placements, never from the simulator's
// own caches — to the invariants only a multi-tenant schedule has:
//
//   assignment      every job's every task assigned, to an existing VM;
//   duration        end - start == exec_time(actual work, VM size), bitwise;
//   precedence      per-job start(t) >= end(p) + transfer(p -> t) on the
//                   assigned endpoints (transfers re-derived from the
//                   platform model, cross-job edges do not exist);
//   release         no task starts before the platform boot or before its
//                   job's arrival;
//   table-timeline  the shared pool's placement timeline and the per-job
//                   task tables agree bitwise, each global task id exactly
//                   once;
//   overlap         placements on one VM never overlap;
//   quota           at no instant does a tenant run more tasks than its
//                   registered max_running (interval sweep over raw
//                   placements, ends processed before starts at a tie);
//   isolation       under the exclusive policy, every placement on a VM
//                   belongs to the tenant that rented it;
//   billing         per-VM BTUs re-derived by check/oracle's rent/stop
//                   segmentation and BTU quantizer match the pool, and
//                   tenant::attribute_billing's per-tenant bills recompose
//                   bitwise to the pool's rental cost.
#pragma once

#include <span>

#include "check/oracle.hpp"
#include "tenant/shared_pool.hpp"

namespace cloudwf::check {

/// Runs every multi-tenant invariant against a run_shared_pool result.
/// Never throws on a bad schedule — violations are the payload.
[[nodiscard]] OracleReport check_multi_tenant(
    const tenant::TenantRegistry& registry,
    std::span<const tenant::JobSpec> jobs,
    const tenant::MultiTenantResult& result, const cloud::Platform& platform);

}  // namespace cloudwf::check
