// Discrete-event replay of a static schedule.
//
// The schedulers construct start/finish times analytically (like the paper's
// simulator). EventSimulator re-executes the same task-to-VM mapping as an
// event-driven simulation: tasks start as soon as (a) every predecessor's
// data has arrived and (b) the VM has finished the previous task on its
// timeline and (c) the VM has booted. With zero boot time the replayed times
// must be <= the static ones (the replay is work-conserving) and, for the
// paper's append-only policies, exactly equal — a cross-check the test suite
// applies to every scheduler on every workflow.
//
// The perturbed replays (replay_with_actuals in sim/online.hpp,
// replay_with_faults in sim/faults.hpp) run the same loop: they only
// compute how long each task occupies its VM.
#pragma once

#include <span>
#include <vector>

#include "cloud/platform.hpp"
#include "dag/workflow.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::sim {

struct ReplayedTask {
  util::Seconds start = 0;
  util::Seconds end = 0;
};

struct ReplayResult {
  std::vector<ReplayedTask> tasks;  ///< indexed by TaskId
  util::Seconds makespan = 0;
  std::size_t events_processed = 0;
};

class EventSimulator {
 public:
  explicit EventSimulator(const cloud::Platform& platform) : platform_(&platform) {}

  /// Replays `schedule`'s mapping (VM choice + per-VM task order) for `wf`.
  /// The schedule must be complete and structurally valid.
  [[nodiscard]] ReplayResult replay(const dag::Workflow& wf,
                                    const Schedule& schedule) const;

  /// The one replay loop: as above, but task t occupies its assigned VM for
  /// `durations[t]` seconds (one entry per task) instead of its work over
  /// the VM's speed-up.
  [[nodiscard]] ReplayResult replay(
      const dag::Workflow& wf, const Schedule& schedule,
      std::span<const util::Seconds> durations) const;

 private:
  const cloud::Platform* platform_;
};

}  // namespace cloudwf::sim
