#include "cloud/vm.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

namespace cloudwf::cloud {

void Vm::set_size(InstanceSize s) {
  if (used())
    throw std::logic_error("Vm::set_size: cannot resize a VM with placements");
  size_ = s;
}

util::Seconds Vm::first_start() const noexcept {
  return placements_.empty() ? 0.0 : placements_.front().start;
}

util::Seconds Vm::available_from() const noexcept {
  return placements_.empty() ? 0.0 : placements_.back().end;
}

util::Seconds Vm::span() const noexcept { return available_from() - first_start(); }

std::vector<Vm::Session> Vm::sessions() const {
  // Replay of place()'s session logic over the placement timeline — the
  // same extend-or-open decisions in the same order, so the materialized
  // list is bitwise what the removed per-VM vector used to hold.
  std::vector<Session> out;
  out.reserve(session_count_);
  for (const Placement& p : placements_) {
    if (out.empty() || util::time_gt(p.start, out.back().paid_end()))
      out.push_back(Session{p.start, p.end});
    else
      out.back().end = p.end;
  }
  return out;
}

std::int64_t Vm::btus() const {
  return session_count_ == 0 ? 0 : closed_btus_ + last_session_.btus();
}

util::Seconds Vm::paid_time() const {
  return static_cast<util::Seconds>(btus()) * util::kBtu;
}

util::Seconds Vm::idle_time() const {
  return used() ? paid_time() - busy_time() : 0.0;
}

util::Money Vm::cost(const Region& region) const {
  return region.price(size_) * btus();
}

bool Vm::placement_adds_btu(util::Seconds start, util::Seconds end) const {
  if (!used()) return true;
  if (util::time_gt(start, last_session_.paid_end())) return true;  // new session
  return btus_for(end - last_session_.start) > last_session_.btus();
}

void Vm::place(dag::TaskId task, util::Seconds start, util::Seconds end) {
  if (task == dag::kInvalidTask)
    throw std::invalid_argument("Vm::place: invalid task");
  if (start < -util::kTimeEpsilon || end < start - util::kTimeEpsilon)
    throw std::invalid_argument("Vm::place: bad interval");
  if (util::time_gt(max_end_, start))
    throw std::logic_error("Vm::place: overlaps previous placement (append-only)");

  if (session_count_ == 0 || util::time_gt(start, last_session_.paid_end())) {
    // A closed session's span is final — fold its BTUs into the running sum
    // (same int64 addition order as summing the historical session list).
    if (session_count_ > 0) closed_btus_ += last_session_.btus();
    last_session_ = Session{start, end};
    ++session_count_;
  } else {
    last_session_.end = end;
  }
  placements_.push_back(Placement{task, start, end});
  max_end_ = std::max(max_end_, end);
  busy_time_ += end - start;  // same addition order as the historical re-sum
}

namespace {
// Index verification (tests): every reuse_order() query re-sorts from
// scratch and compares against the incrementally maintained index.
std::atomic<bool> g_verify_index{false};
}  // namespace

void VmPool::set_index_verification(bool on) noexcept {
  g_verify_index.store(on, std::memory_order_relaxed);
}

Vm& VmPool::rent(InstanceSize size, RegionId region) {
  // A fresh VM is unused, so the reuse index is unaffected.
  vms_.emplace_back(static_cast<VmId>(vms_.size()), size, region);
  return vms_.back();
}

Vm& VmPool::vm(VmId id) {
  if (id >= vms_.size()) throw std::out_of_range("VmPool::vm: bad id");
  reuse_dirty_ = true;
  ++mutation_epoch_;
  return vms_[id];
}

const Vm& VmPool::vm(VmId id) const {
  if (id >= vms_.size()) throw std::out_of_range("VmPool::vm: bad id");
  return vms_[id];
}

std::size_t VmPool::used_count() const noexcept {
  std::size_t n = 0;
  for (const Vm& v : vms_)
    if (v.used()) ++n;
  return n;
}

util::Money VmPool::rental_cost(std::span<const Region> regions) const {
  util::Money total;
  for (const Vm& v : vms_) total += v.cost(regions[v.region()]);
  return total;
}

util::Seconds VmPool::total_idle_time() const {
  util::Seconds idle = 0;
  for (const Vm& v : vms_) idle += v.idle_time();
  return idle;
}

void VmPool::clear_placements() noexcept {
  for (Vm& v : vms_) v.clear();
  placement_log_.clear();
  reuse_dirty_ = true;  // index empties; rebuilt lazily if queried again
  ++mutation_epoch_;
}

void VmPool::place(VmId id, dag::TaskId task, util::Seconds start,
                   util::Seconds end) {
  if (id >= vms_.size()) throw std::out_of_range("VmPool::place: bad id");
  Vm& v = vms_[id];
  const bool first_use = !v.used();
  v.place(task, start, end);
  placement_log_.push_back(id);
  if (reuse_dirty_) return;  // a query will rebuild from scratch anyway

  // Keep reuse_index_ sorted by (busy_time desc, id asc). A placement only
  // grows busy time, so an already-indexed VM can only move left.
  const auto precedes = [this](VmId a, VmId b) {
    const util::Seconds ba = vms_[a].busy_time(), bb = vms_[b].busy_time();
    if (ba != bb) return ba > bb;
    return a < b;
  };
  if (pos_.size() < vms_.size()) pos_.resize(vms_.size(), kInvalidVm);
  if (first_use) {
    const auto it =
        std::lower_bound(reuse_index_.begin(), reuse_index_.end(), id, precedes);
    const auto slot = static_cast<std::size_t>(it - reuse_index_.begin());
    reuse_index_.insert(it, id);
    for (std::size_t i = slot; i < reuse_index_.size(); ++i)
      pos_[reuse_index_[i]] = static_cast<VmId>(i);
  } else {
    std::size_t cur = pos_[id];
    if (cur >= reuse_index_.size() || reuse_index_[cur] != id) {
      reuse_dirty_ = true;  // defensive: stale slot, fall back to rebuild
      return;
    }
    while (cur > 0 && precedes(id, reuse_index_[cur - 1])) {
      reuse_index_[cur] = reuse_index_[cur - 1];
      pos_[reuse_index_[cur]] = static_cast<VmId>(cur);
      --cur;
    }
    reuse_index_[cur] = id;
    pos_[id] = static_cast<VmId>(cur);
  }
}

void VmPool::rebuild_reuse_index() const {
  reuse_index_.clear();
  for (const Vm& v : vms_)
    if (v.used()) reuse_index_.push_back(v.id());
  std::sort(reuse_index_.begin(), reuse_index_.end(), [this](VmId a, VmId b) {
    const util::Seconds ba = vms_[a].busy_time(), bb = vms_[b].busy_time();
    if (ba != bb) return ba > bb;
    return a < b;
  });
  pos_.assign(vms_.size(), kInvalidVm);
  for (std::size_t i = 0; i < reuse_index_.size(); ++i)
    pos_[reuse_index_[i]] = static_cast<VmId>(i);
  reuse_dirty_ = false;
}

std::span<const VmId> VmPool::reuse_order() const {
  if (reuse_dirty_) rebuild_reuse_index();
  if (g_verify_index.load(std::memory_order_relaxed)) {
    const std::vector<VmId> incremental = reuse_index_;
    rebuild_reuse_index();
    if (incremental != reuse_index_)
      throw std::logic_error(
          "VmPool::reuse_order: incremental index diverged from linear sort "
          "(" +
          std::to_string(incremental.size()) + " vs " +
          std::to_string(reuse_index_.size()) + " used VMs)");
  }
  return reuse_index_;
}

}  // namespace cloudwf::cloud
