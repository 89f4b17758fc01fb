#include "sim/faults.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace cloudwf::sim {

FaultyReplayResult replay_with_faults(const dag::Workflow& wf,
                                      const Schedule& schedule,
                                      const cloud::Platform& platform,
                                      const FaultModel& model, util::Rng& rng) {
  if (!schedule.complete())
    throw std::logic_error("replay_with_faults: incomplete schedule");
  if (model.failures_per_vm_hour < 0)
    throw std::invalid_argument("replay_with_faults: negative failure rate");

  const cloud::VmPool& pool = schedule.pool();

  FaultyReplayResult result;

  // Per-task effective busy time: failed attempts (each aborted at a
  // uniform point) plus detection delays plus the final successful run.
  // Precomputable because attempts depend only on the task, not the clock.
  std::vector<util::Seconds> effective(wf.task_count(), 0);
  for (const dag::Task& t : wf.tasks()) {
    const cloud::Vm& vm = pool.vm(schedule.assignment(t.id).vm);
    const util::Seconds duration = cloud::exec_time(t.work, vm.size());
    const double p_fail =
        1.0 - std::exp(-model.failures_per_vm_hour * duration / 3600.0);
    util::Seconds acc = 0;
    for (std::size_t attempt = 0; attempt < model.max_retries_per_task;
         ++attempt) {
      if (!rng.chance(p_fail)) break;  // this attempt succeeds
      ++result.failures;
      const util::Seconds wasted = rng.uniform() * duration;
      acc += wasted + model.detection_delay;
      result.time_lost += wasted + model.detection_delay;
    }
    effective[t.id] = acc + duration;
  }

  ReplayResult replay =
      EventSimulator(platform).replay(wf, schedule, effective);
  result.tasks = std::move(replay.tasks);
  result.makespan = replay.makespan;
  return result;
}

}  // namespace cloudwf::sim
