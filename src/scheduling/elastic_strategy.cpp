#include "scheduling/elastic_strategy.hpp"

namespace cloudwf::scheduling {

ElasticScheduler::ElasticScheduler(sim::ElasticPolicy policy)
    : policy_(policy) {}

std::string ElasticScheduler::name() const {
  return "Elastic-" + std::string(cloud::suffix_of(policy_.size));
}

sim::Schedule ElasticScheduler::run(const dag::Workflow& wf,
                                    const cloud::Platform& platform) const {
  return sim::run_elastic(wf, platform, policy_).schedule;
}

}  // namespace cloudwf::scheduling
