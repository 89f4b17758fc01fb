#include "scheduling/heuristics.hpp"

#include <algorithm>
#include <stdexcept>

#include "dag/graph_algo.hpp"
#include "scheduling/upgrade.hpp"

namespace cloudwf::scheduling {

MinMinScheduler::MinMinScheduler(MinMaxMode mode, std::size_t pool_size,
                                 cloud::InstanceSize size)
    : mode_(mode), pool_size_(pool_size), size_(size) {
  if (pool_size_ == 0) throw std::invalid_argument("MinMinScheduler: empty pool");
}

std::string MinMinScheduler::name() const {
  return std::string(mode_ == MinMaxMode::min_min ? "MinMin" : "MaxMin") + "-" +
         std::string(cloud::suffix_of(size_));
}

sim::Schedule MinMinScheduler::run(const dag::Workflow& wf,
                                   const cloud::Platform& platform) const {
  wf.validate();
  sim::Schedule schedule(wf);
  provisioning::PlacementContext ctx(wf, schedule, platform, size_);
  std::vector<cloud::VmId> pool;
  for (std::size_t i = 0; i < pool_size_; ++i)
    pool.push_back(schedule.rent(size_, platform.default_region_id()));

  std::vector<std::size_t> waiting(wf.task_count());
  std::vector<dag::TaskId> ready;
  for (const dag::Task& t : wf.tasks()) {
    waiting[t.id] = wf.predecessors(t.id).size();
    if (waiting[t.id] == 0) ready.push_back(t.id);
  }

  while (!ready.empty()) {
    // For each ready task, its best EFT over the pool; then pick the task
    // with the min (Min-Min) or max (Max-Min) of those bests.
    dag::TaskId chosen_task = dag::kInvalidTask;
    cloud::VmId chosen_vm = cloud::kInvalidVm;
    util::Seconds chosen_eft = 0;
    for (dag::TaskId t : ready) {
      cloud::VmId best_vm = pool.front();
      util::Seconds best_eft = 0;
      bool first = true;
      for (cloud::VmId id : pool) {
        const util::Seconds eft =
            ctx.est_on(t, schedule.pool().vm(id)) + ctx.exec_time(t, size_);
        if (first || eft < best_eft - util::kTimeEpsilon) {
          best_vm = id;
          best_eft = eft;
          first = false;
        }
      }
      const bool better =
          chosen_task == dag::kInvalidTask ||
          (mode_ == MinMaxMode::min_min
               ? best_eft < chosen_eft - util::kTimeEpsilon
               : best_eft > chosen_eft + util::kTimeEpsilon);
      if (better) {
        chosen_task = t;
        chosen_vm = best_vm;
        chosen_eft = best_eft;
      }
    }

    const util::Seconds est =
        ctx.est_on(chosen_task, schedule.pool().vm(chosen_vm));
    schedule.assign(chosen_task, chosen_vm, est,
                    est + ctx.exec_time(chosen_task, size_));
    ready.erase(std::find(ready.begin(), ready.end(), chosen_task));
    for (dag::TaskId s : wf.successors(chosen_task))
      if (--waiting[s] == 0) ready.push_back(s);
  }
  return schedule;
}

CtcScheduler::CtcScheduler(double time_weight) : time_weight_(time_weight) {
  if (time_weight < 0 || time_weight > 1)
    throw std::invalid_argument("CtcScheduler: time weight in [0,1]");
}

std::string CtcScheduler::name() const { return "CTC"; }

cloud::InstanceSize CtcScheduler::choose_size(util::Seconds work,
                                              const cloud::Region& region) const {
  // Normalize both objectives to their per-task extremes (small = slowest
  // and cheapest per BTU; xlarge = fastest and priciest), then minimize the
  // compromise. BTU quantization enters through the real rental cost.
  const util::Seconds t_max = cloud::exec_time(work, cloud::InstanceSize::small);
  const util::Seconds t_min = cloud::exec_time(work, cloud::InstanceSize::xlarge);
  util::Money c_min;
  util::Money c_max;
  bool first = true;
  for (cloud::InstanceSize s : cloud::kAllSizes) {
    const util::Money c =
        cloud::rental_cost(cloud::exec_time(work, s), s, region);
    if (first || c < c_min) c_min = c;
    if (first || c > c_max) c_max = c;
    first = false;
  }

  cloud::InstanceSize best = cloud::InstanceSize::small;
  double best_score = 0;
  first = true;
  for (cloud::InstanceSize s : cloud::kAllSizes) {
    const util::Seconds t = cloud::exec_time(work, s);
    const util::Money c =
        cloud::rental_cost(cloud::exec_time(work, s), s, region);
    const double t_norm =
        t_max > t_min ? (t - t_min) / (t_max - t_min) : 0.0;
    const double c_norm =
        c_max > c_min
            ? static_cast<double>((c - c_min).micros()) /
                  static_cast<double>((c_max - c_min).micros())
            : 0.0;
    const double score = time_weight_ * t_norm + (1.0 - time_weight_) * c_norm;
    if (first || score < best_score) {
      best = s;
      best_score = score;
      first = false;
    }
  }
  return best;
}

sim::Schedule CtcScheduler::run(const dag::Workflow& wf,
                                const cloud::Platform& platform) const {
  wf.validate();
  std::vector<cloud::InstanceSize> sizes(wf.task_count());
  for (const dag::Task& t : wf.tasks())
    sizes[t.id] = choose_size(t.work, platform.default_region());
  return retime_one_vm_per_task(wf, platform, sizes);
}

}  // namespace cloudwf::scheduling
