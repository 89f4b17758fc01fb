// Classic list heuristics from the paper's related work (Liu's instance-
// intensive cloud workflow scheduling, ref [14], and the grid folklore it
// builds on):
//
//  - Min-Min: among the currently ready tasks, repeatedly dispatch the task
//    with the globally minimal earliest finish time over a fixed pool —
//    short tasks first, keeping machines busy;
//  - Max-Min: the dual — dispatch the ready task whose best EFT is largest,
//    so long tasks cannot strand at the end;
//  - CTC (Compromised-Time-Cost): one VM per task, the instance type chosen
//    per task to minimize w * normalized_time + (1-w) * normalized_cost —
//    the user dials w between the paper's two objectives.
#pragma once

#include "scheduling/scheduler.hpp"

namespace cloudwf::scheduling {

enum class MinMaxMode { min_min, max_min };

class MinMinScheduler final : public Scheduler {
 public:
  MinMinScheduler(MinMaxMode mode, std::size_t pool_size,
                  cloud::InstanceSize size);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] sim::Schedule run(const dag::Workflow& wf,
                                  const cloud::Platform& platform) const override;

 private:
  MinMaxMode mode_;
  std::size_t pool_size_;
  cloud::InstanceSize size_;
};

class CtcScheduler final : public Scheduler {
 public:
  /// time_weight in [0, 1]: 1 = pure makespan (everything xlarge),
  /// 0 = pure cost (everything small).
  explicit CtcScheduler(double time_weight = 0.5);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] sim::Schedule run(const dag::Workflow& wf,
                                  const cloud::Platform& platform) const override;

  /// The per-task size choice (exposed for tests).
  [[nodiscard]] cloud::InstanceSize choose_size(util::Seconds work,
                                                const cloud::Region& region) const;

 private:
  double time_weight_;
};

}  // namespace cloudwf::scheduling
