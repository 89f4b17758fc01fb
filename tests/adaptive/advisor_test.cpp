#include "adaptive/advisor.hpp"

#include <gtest/gtest.h>

#include "dag/builders.hpp"
#include "dag/generators.hpp"
#include "scheduling/factory.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::adaptive {
namespace {

dag::Workflow pareto(const dag::Workflow& base) {
  workload::ScenarioConfig cfg;
  return workload::apply_scenario(base, cfg);
}

TEST(Features, ClassifiesThePaperWorkflows) {
  EXPECT_EQ(compute_features(dag::builders::montage24()).parallelism,
            ParallelismClass::much_parallelism);
  EXPECT_EQ(compute_features(dag::builders::map_reduce()).parallelism,
            ParallelismClass::much_parallelism);
  EXPECT_EQ(compute_features(dag::builders::cstem()).parallelism,
            ParallelismClass::some_parallelism);
  EXPECT_EQ(compute_features(dag::builders::sequential_chain()).parallelism,
            ParallelismClass::sequential);
}

TEST(Features, MontageButNotMapReduceHasManyInterdependencies) {
  // The discriminator between Table V rows 1 and 2: Montage's skip edges.
  EXPECT_TRUE(compute_features(dag::builders::montage24()).many_interdependencies);
  EXPECT_FALSE(compute_features(dag::builders::map_reduce()).many_interdependencies);
}

TEST(Features, HeterogeneityFollowsScenario) {
  const dag::Workflow uniform = dag::builders::montage24();
  EXPECT_FALSE(compute_features(uniform).heterogeneous_tasks);
  EXPECT_TRUE(compute_features(pareto(uniform)).heterogeneous_tasks);
}

TEST(Features, TaskLengthClasses) {
  dag::Workflow short_wf("s");
  (void)short_wf.add_task("t", 100.0);
  EXPECT_EQ(compute_features(short_wf).task_length, TaskLengthClass::short_tasks);

  dag::Workflow long_wf("l");
  (void)long_wf.add_task("t", 2.0 * util::kBtu);
  EXPECT_EQ(compute_features(long_wf).task_length, TaskLengthClass::long_tasks);

  dag::Workflow mid_wf("m");
  (void)mid_wf.add_task("t", 2000.0);
  EXPECT_EQ(compute_features(mid_wf).task_length, TaskLengthClass::medium_tasks);
}

TEST(Features, CountsAndDescription) {
  const WorkflowFeatures f = compute_features(dag::builders::montage24());
  EXPECT_EQ(f.tasks, 24u);
  EXPECT_EQ(f.levels, 6u);
  EXPECT_EQ(f.max_width, 9u);
  EXPECT_GT(f.interdependency, 0.0);
  const std::string d = describe(f);
  EXPECT_NE(d.find("24 tasks"), std::string::npos);
  EXPECT_NE(d.find("much parallelism"), std::string::npos);
}

TEST(Advisor, SavingsAlwaysRecommendsDynOutsideSequential) {
  // Table V: AllPar1LnSDyn is the savings pick for all non-sequential rows.
  for (const dag::Workflow& wf :
       {dag::builders::montage24(), dag::builders::cstem(),
        dag::builders::map_reduce()}) {
    const Advice a = advise(compute_features(pareto(wf)), Objective::savings);
    EXPECT_EQ(a.strategy_label, "AllPar1LnSDyn") << wf.name();
    EXPECT_FALSE(a.rationale.empty());
  }
}

TEST(Advisor, SequentialGainWantsLargeInstances) {
  const Advice a =
      advise(compute_features(dag::builders::sequential_chain()), Objective::gain);
  EXPECT_NE(a.strategy_label.find("-l"), std::string::npos);
}

TEST(Advisor, MapReduceGainPicksAllParExceedMedium) {
  const Advice a = advise(compute_features(pareto(dag::builders::map_reduce())),
                          Objective::gain);
  EXPECT_EQ(a.strategy_label, "AllParExceed-m");
}

TEST(Advisor, EveryAdviceIsAResolvableLabel) {
  for (const dag::Workflow& base :
       {dag::builders::montage24(), dag::builders::cstem(),
        dag::builders::map_reduce(), dag::builders::sequential_chain()}) {
    for (workload::ScenarioKind kind :
         {workload::ScenarioKind::pareto, workload::ScenarioKind::data_intensive}) {
      workload::ScenarioConfig cfg;
      cfg.kind = kind;
      const dag::Workflow wf = workload::apply_scenario(base, cfg);
      for (Objective obj :
           {Objective::savings, Objective::gain, Objective::balanced}) {
        const Advice a = advise(compute_features(wf), obj);
        EXPECT_NO_THROW(
            (void)scheduling::strategy_by_label(a.strategy_label))
            << wf.name() << " / " << name_of(obj) << " -> " << a.strategy_label;
      }
    }
  }
}

TEST(Advisor, DataIntensiveWorkloadsGetLocalityAdvice) {
  workload::ScenarioConfig cfg;
  cfg.kind = workload::ScenarioKind::data_intensive;
  const dag::Workflow wf =
      workload::apply_scenario(dag::builders::map_reduce(), cfg);
  const WorkflowFeatures f = compute_features(wf);
  EXPECT_TRUE(f.data_intensive);
  EXPECT_GT(f.ccr, 0.1);

  EXPECT_EQ(advise(f, Objective::savings).strategy_label, "StartParExceed-s");
  EXPECT_EQ(advise(f, Objective::gain).strategy_label, "PCH-l");
  EXPECT_EQ(advise(f, Objective::balanced).strategy_label, "PCH-s");
}

TEST(Advisor, CpuIntensiveWorkloadsAreNotDataIntensive) {
  const WorkflowFeatures f =
      compute_features(pareto(dag::builders::montage24()));
  EXPECT_FALSE(f.data_intensive);
  EXPECT_LT(f.ccr, 0.1);
}

TEST(Advisor, RecommendProducesRunnableStrategy) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::cstem());
  const scheduling::Strategy s = recommend(wf, Objective::balanced);
  EXPECT_NO_THROW((void)s.scheduler->run(wf, platform));
}

TEST(Advisor, WorksOnGeneratedWorkflows) {
  // The future-work case: advice on arbitrary custom DAGs never throws.
  util::Rng rng(2718);
  for (int i = 0; i < 20; ++i) {
    dag::generators::LayeredConfig cfg;
    cfg.levels = 1 + static_cast<std::size_t>(rng.below(8));
    cfg.max_width = 1 + static_cast<std::size_t>(rng.below(6));
    cfg.min_width = 1;
    const dag::Workflow wf = dag::generators::random_layered(cfg, rng);
    for (Objective obj :
         {Objective::savings, Objective::gain, Objective::balanced}) {
      EXPECT_NO_THROW((void)advise(compute_features(wf), obj));
    }
  }
}

TEST(ObjectiveNames, Stable) {
  EXPECT_EQ(name_of(Objective::savings), "savings");
  EXPECT_EQ(name_of(Objective::gain), "gain");
  EXPECT_EQ(name_of(Objective::balanced), "balanced");
}

}  // namespace
}  // namespace cloudwf::adaptive
