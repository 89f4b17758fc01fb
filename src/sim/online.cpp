#include "sim/online.hpp"

#include <cmath>
#include <stdexcept>

namespace cloudwf::sim {

std::vector<util::Seconds> RuntimeErrorModel::sample_actual_works(
    const dag::Workflow& wf, util::Rng& rng) const {
  if (sigma < 0)
    throw std::invalid_argument("RuntimeErrorModel: negative sigma");
  std::vector<util::Seconds> actual(wf.task_count());
  for (const dag::Task& t : wf.tasks()) {
    if (sigma == 0) {
      actual[t.id] = t.work;
      continue;
    }
    // Box-Muller; u1 in (0,1] avoids log(0).
    const double u1 = 1.0 - rng.uniform();
    const double u2 = rng.uniform();
    const double z = std::sqrt(-2.0 * std::log(u1)) *
                     std::cos(2.0 * 3.14159265358979323846 * u2);
    actual[t.id] = t.work * std::exp(sigma * z - sigma * sigma / 2.0);
  }
  return actual;
}

ReplayResult replay_with_actuals(const dag::Workflow& wf, const Schedule& schedule,
                                 const cloud::Platform& platform,
                                 std::span<const util::Seconds> actual_works) {
  if (!schedule.complete())
    throw std::logic_error("replay_with_actuals: incomplete schedule");
  if (actual_works.size() != wf.task_count())
    throw std::invalid_argument("replay_with_actuals: actual_works size mismatch");

  std::vector<util::Seconds> durations(wf.task_count());
  for (const dag::Task& t : wf.tasks())
    durations[t.id] = cloud::exec_time(
        actual_works[t.id],
        schedule.pool().vm(schedule.assignment(t.id).vm).size());
  return EventSimulator(platform).replay(wf, schedule, durations);
}

}  // namespace cloudwf::sim
