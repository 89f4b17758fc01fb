// Vm: one rented virtual machine and its timeline of task placements.
// VmPool: the set of VMs a schedule rents.
//
// Placements are append-only in time: the paper's provisioning policies reuse
// VMs strictly sequentially (a task starts no earlier than the VM's last
// placement ends), which is what the `place` precondition enforces.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/instance.hpp"
#include "cloud/region.hpp"
#include "dag/task.hpp"
#include "util/money.hpp"
#include "util/units.hpp"

namespace cloudwf::cloud {

using VmId = std::uint32_t;
inline constexpr VmId kInvalidVm = std::numeric_limits<VmId>::max();

struct Placement {
  dag::TaskId task = dag::kInvalidTask;
  util::Seconds start = 0;
  util::Seconds end = 0;
};

/// The append-only rule, written once: a placement starting at `start`
/// overlaps a timeline whose latest end so far is `latest_end` when it
/// starts more than the schedule-time slack before that end. Vm::place
/// refuses such an append; sim::validate reports it as `overlap`.
[[nodiscard]] constexpr bool overlaps_timeline(util::Seconds latest_end,
                                               util::Seconds start) noexcept {
  return util::time_gt(latest_end, start);
}

class Vm {
 public:
  Vm(VmId id, InstanceSize size, RegionId region) noexcept
      : id_(id), size_(size), region_(region) {}

  [[nodiscard]] VmId id() const noexcept { return id_; }
  [[nodiscard]] InstanceSize size() const noexcept { return size_; }
  [[nodiscard]] RegionId region() const noexcept { return region_; }

  /// Changes the instance size. Only meaningful while the VM is empty (the
  /// upgrade schedulers clear + retime after changing sizes); enforced.
  void set_size(InstanceSize s);

  [[nodiscard]] const std::vector<Placement>& placements() const noexcept {
    return placements_;
  }
  [[nodiscard]] bool used() const noexcept { return !placements_.empty(); }

  /// Start of the rental (first placement start); 0 if unused.
  [[nodiscard]] util::Seconds first_start() const noexcept;

  /// End of the last placement; 0 if unused. Also the earliest time the next
  /// placement may start.
  [[nodiscard]] util::Seconds available_from() const noexcept;

  /// Total task-occupied seconds. Maintained as a running sum by place()
  /// (same addition order as summing the placements, so bit-identical).
  [[nodiscard]] util::Seconds busy_time() const noexcept { return busy_time_; }

  /// Rental span: available_from() - first_start().
  [[nodiscard]] util::Seconds span() const noexcept;

  /// One billing session: the VM runs from `start` and is released at the
  /// first paid-BTU boundary at which it sits idle. A placement arriving
  /// within the current session's paid window extends the session; one
  /// arriving later begins a new session (the VM was shut down in between
  /// and is booted anew — the paper's reuse still names it the same VM).
  struct Session {
    util::Seconds start = 0;
    util::Seconds end = 0;  ///< end of the session's last placement

    [[nodiscard]] std::int64_t btus() const { return btus_for(end - start); }
    [[nodiscard]] util::Seconds paid_end() const {
      return start + static_cast<util::Seconds>(btus()) * util::kBtu;
    }
  };

  /// All billing sessions, materialized on demand by replaying the
  /// placement timeline (cold consumers: gantt, reports, tests). The hot
  /// paths never build this list — place() maintains the last session and
  /// the closed sessions' BTU sum as running aggregates, so billing queries
  /// are O(1) instead of O(sessions) and a VM carries one vector fewer.
  [[nodiscard]] std::vector<Session> sessions() const;

  /// Number of billing sessions (O(1)).
  [[nodiscard]] std::size_t session_count() const noexcept {
    return session_count_;
  }

  /// The still-open last session. Precondition: used().
  [[nodiscard]] const Session& last_session() const noexcept {
    return last_session_;
  }

  /// Whole BTUs billed across all sessions (0 if the VM was never used).
  [[nodiscard]] std::int64_t btus() const;

  /// Wall-clock seconds paid for (sum of session BTUs x 3600; 0 if unused).
  [[nodiscard]] util::Seconds paid_time() const;

  /// Paid-but-unoccupied seconds — the paper's per-VM idle time (Fig. 5).
  /// Bounded below one BTU per session because idle VMs are released at the
  /// paid boundary.
  [[nodiscard]] util::Seconds idle_time() const;

  /// Rental cost in the VM's region at its size (0 if unused).
  [[nodiscard]] util::Money cost(const Region& region) const;

  /// Would appending a placement over [start, end) increase this VM's total
  /// BTU count? This is the *NotExceed policies' reuse test. Unused VMs
  /// return true (renting at all adds the first BTU); a placement starting
  /// after the current session's paid window returns true (it opens a new
  /// session).
  [[nodiscard]] bool placement_adds_btu(util::Seconds start,
                                        util::Seconds end) const;

  /// Appends a placement. Preconditions: end >= start and start >= 0, and
  /// start is no earlier than the latest end placed so far (each within the
  /// schedule-time slack).
  void place(dag::TaskId task, util::Seconds start, util::Seconds end);

  /// Removes all placements (used by the retiming upgrade schedulers).
  void clear() noexcept {
    placements_.clear();
    busy_time_ = 0;
    max_end_ = 0;
    closed_btus_ = 0;
    session_count_ = 0;
    last_session_ = Session{};
  }

 private:
  VmId id_;
  InstanceSize size_;
  RegionId region_;
  util::Seconds busy_time_ = 0;
  /// Latest end placed so far. An end may fall up to the slack before its
  /// start, so available_from() can drift below it.
  util::Seconds max_end_ = 0;
  std::int64_t closed_btus_ = 0;  ///< BTU sum of all sessions before the last
  std::size_t session_count_ = 0;
  Session last_session_{};
  std::vector<Placement> placements_;
};

class VmPool {
 public:
  VmPool() = default;

  /// Rents a fresh VM; returns a reference valid only until the next rent
  /// (vector growth). The id (== position) is stable — keep that instead.
  Vm& rent(InstanceSize size, RegionId region);

  [[nodiscard]] std::size_t size() const noexcept { return vms_.size(); }
  [[nodiscard]] bool empty() const noexcept { return vms_.empty(); }

  /// Mutable access marks the reuse index dirty (the caller may change
  /// placements behind the pool's back); it is rebuilt lazily on the next
  /// reuse_order() query. Prefer place() for appending placements — it
  /// keeps the index incremental.
  [[nodiscard]] Vm& vm(VmId id);
  [[nodiscard]] const Vm& vm(VmId id) const;

  [[nodiscard]] std::vector<Vm>& vms() noexcept {
    reuse_dirty_ = true;
    ++mutation_epoch_;
    return vms_;
  }
  [[nodiscard]] const std::vector<Vm>& vms() const noexcept { return vms_; }

  /// Bumped by every access that may rewrite existing placements (mutable
  /// vm()/vms(), clear_placements) but not by appends through place()/rent.
  /// Derived caches (the placement context's level occupancy) compare
  /// epochs to know when incremental maintenance is unsafe.
  [[nodiscard]] std::uint64_t mutation_epoch() const noexcept {
    return mutation_epoch_;
  }

  /// Appends a placement to `id`'s timeline (see Vm::place) while keeping
  /// the reuse index incremental — the fast path sim::Schedule::assign uses.
  void place(VmId id, dag::TaskId task, util::Seconds start, util::Seconds end);

  /// Ids of all used VMs ordered by busy time descending, id ascending on
  /// ties — the reuse preference order of the StartPar/AllPar policies (the
  /// first admissible element equals the old linear scan's argmax). Valid
  /// until the pool is mutated.
  [[nodiscard]] std::span<const VmId> reuse_order() const;

  /// One entry per place() append, in append order: the id of the VM whose
  /// busy time just grew. Derived caches (PlacementContext's AllPar
  /// candidate heap) fold the suffix since their last sync instead of
  /// rescanning the pool. Reset by clear_placements(); mutations that
  /// bypass place() bump mutation_epoch(), which tells consumers to resync
  /// from scratch.
  [[nodiscard]] const std::vector<VmId>& placement_log() const noexcept {
    return placement_log_;
  }

  /// Globally enables cross-checking the incremental reuse index against a
  /// freshly sorted one on every reuse_order() query; mismatches throw
  /// std::logic_error. Test-only (off by default; costs O(V log V) per
  /// query).
  static void set_index_verification(bool on) noexcept;

  /// Number of VMs that received at least one task.
  [[nodiscard]] std::size_t used_count() const noexcept;

  /// Sum of per-VM rental costs (no egress; that is a schedule-level cost).
  [[nodiscard]] util::Money rental_cost(std::span<const Region> regions) const;

  /// Sum of per-VM idle times (Fig. 5's quantity).
  [[nodiscard]] util::Seconds total_idle_time() const;

  /// Clears all placements on all VMs but keeps the VMs (sizes/regions).
  void clear_placements() noexcept;

 private:
  void rebuild_reuse_index() const;

  std::vector<Vm> vms_;
  std::vector<VmId> placement_log_;
  // Reuse index: used VM ids sorted by (busy_time desc, id asc), maintained
  // incrementally by place() and rebuilt lazily after any mutation that
  // bypassed it. pos_[id] is the id's slot in reuse_index_ (kInvalidVm when
  // unused or stale).
  mutable std::vector<VmId> reuse_index_;
  mutable std::vector<VmId> pos_;
  mutable bool reuse_dirty_ = false;
  std::uint64_t mutation_epoch_ = 0;
};

}  // namespace cloudwf::cloud
