// ElasticScheduler: the auto-scaling runtime (sim/elastic.hpp) wrapped as a
// Scheduler, so the reactive cloud-native baseline participates in every
// portfolio comparison (cloudwf compare/plan, exp::plan, benches) alongside
// the paper's static planners.
#pragma once

#include "scheduling/scheduler.hpp"
#include "sim/elastic.hpp"

namespace cloudwf::scheduling {

class ElasticScheduler final : public Scheduler {
 public:
  explicit ElasticScheduler(sim::ElasticPolicy policy = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] sim::Schedule run(const dag::Workflow& wf,
                                  const cloud::Platform& platform) const override;

  [[nodiscard]] const sim::ElasticPolicy& policy() const noexcept {
    return policy_;
  }

 private:
  sim::ElasticPolicy policy_;
};

}  // namespace cloudwf::scheduling
