#include "adaptive/advisor.hpp"

#include "scheduling/factory.hpp"

namespace cloudwf::adaptive {

namespace {
Advice make(std::string label, std::string why) {
  return Advice{std::move(label), std::move(why)};
}

Advice advise_sequential(const WorkflowFeatures& f, Objective objective) {
  // Table V row 4: "*-s and AllPar1LnSDyn (+ small & heterogeneous tasks)" /
  // "*-l with heterogeneous tasks" / "*-l with short tasks".
  switch (objective) {
    case Objective::savings:
      if (f.heterogeneous_tasks && f.task_length == TaskLengthClass::short_tasks)
        return make("AllPar1LnSDyn",
                    "sequential + small heterogeneous tasks: the dynamic "
                    "level-budgeted SA saves most (Table V row 4)");
      return make("StartParExceed-s",
                  "sequential workflow: any small-instance strategy minimises "
                  "cost; StartParExceed-s packs the chain on one VM");
    case Objective::gain:
      return make("OneVMperTask-l",
                  "sequential + gain target: only faster (large) instances "
                  "shorten a chain (Table V row 4)");
    case Objective::balanced:
      return make("StartParExceed-l",
                  "sequential + short tasks: large instances balance "
                  "gain/savings on a single reused VM (Table V row 4)");
  }
  return make("OneVMperTask-s", "fallback: the reference strategy");
}

Advice advise_some_parallelism(const WorkflowFeatures& f, Objective objective) {
  // Table V row 3 (CSTEM-like).
  switch (objective) {
    case Objective::savings:
      return make("AllPar1LnSDyn",
                  "some parallelism: AllPar1LnSDyn stays in the target square "
                  "(Table V row 3)");
    case Objective::gain:
      return make("AllParNotExceed-m",
                  "some parallelism + heterogeneous tasks: medium instances "
                  "buy gain cheaply (Table V row 3)");
    case Objective::balanced:
      if (f.task_length == TaskLengthClass::long_tasks)
        return make("StartParNotExceed-s",
                    "some parallelism + long tasks: StartParNotExceed-s "
                    "balances gain and savings (Table V row 3)");
      return make("AllParNotExceed-m",
                  "some parallelism + heterogeneous tasks: "
                  "AllParNotExceed-m balances gain and savings (Table V row 3)");
  }
  return make("OneVMperTask-s", "fallback: the reference strategy");
}

Advice advise_much_parallelism(const WorkflowFeatures& f, Objective objective) {
  if (f.many_interdependencies) {
    // Table V row 2 (Montage-like).
    switch (objective) {
      case Objective::savings:
        return make("AllPar1LnSDyn",
                    "much parallelism + many interdependencies: "
                    "AllPar1LnSDyn saves most (Table V row 2)");
      case Objective::gain:
        if (f.task_length == TaskLengthClass::short_tasks)
          return make("AllParExceed-m",
                      "much parallelism + short tasks: AllPar[Not]Exceed-m "
                      "converts parallelism into gain (Table V row 2)");
        return make("StartParExceed-l",
                    "much parallelism + interdependencies: "
                    "StartPar[Not]Exceed-l buys gain (Table V row 2)");
      case Objective::balanced:
        return make(f.heterogeneous_tasks ? "StartParNotExceed-m"
                                          : "StartParNotExceed-s",
                    "Montage-like: StartParNotExceed-[m|s] balances, medium "
                    "for heterogeneous and small for long tasks (Table V row 2)");
    }
  } else {
    // Table V row 1 (MapReduce-like).
    switch (objective) {
      case Objective::savings:
        return make("AllPar1LnSDyn",
                    "much parallelism: AllPar1LnSDyn saves most (Table V row 1)");
      case Objective::gain:
        return make("AllParExceed-m",
                    "much parallelism + small heterogeneous tasks: "
                    "AllParExceed-m wins gain (Table V row 1)");
      case Objective::balanced:
        return make("AllPar1LnSDyn",
                    "much parallelism + heterogeneous tasks: AllPar1LnSDyn "
                    "balances gain and savings (Table V row 1)");
    }
  }
  return make("OneVMperTask-s", "fallback: the reference strategy");
}
}  // namespace

Advice advise(const WorkflowFeatures& features, Objective objective) {
  // Data-intensive workflows override the CPU-intensive Table V rules:
  // "strategies that tend to allocate more VMs are better suited for tasks
  // with large data dependencies where the VM should be as close as
  // possible to the data" (Sect. III-A) — i.e., locality decides. Path
  // clustering (PCH) removes intra-path transfers entirely and a single
  // reused VM removes all of them.
  if (features.data_intensive &&
      features.parallelism != ParallelismClass::sequential) {
    switch (objective) {
      case Objective::savings:
        return make("StartParExceed-s",
                    "data intensive: one reused VM pays no transfers and the "
                    "fewest BTUs (locality rule, Sect. III-A)");
      case Objective::gain:
        return make("PCH-l",
                    "data intensive + gain: path clustering removes "
                    "intra-path transfers; large instances add speed");
      case Objective::balanced:
        return make("PCH-s",
                    "data intensive: path clustering balances transfer "
                    "avoidance with small-instance prices");
    }
  }
  switch (features.parallelism) {
    case ParallelismClass::sequential:
      return advise_sequential(features, objective);
    case ParallelismClass::some_parallelism:
      return advise_some_parallelism(features, objective);
    case ParallelismClass::much_parallelism:
      return advise_much_parallelism(features, objective);
  }
  return make("OneVMperTask-s", "fallback: the reference strategy");
}

scheduling::Strategy recommend(const dag::Workflow& wf, Objective objective) {
  const Advice a = advise(compute_features(wf), objective);
  return scheduling::strategy_by_label(a.strategy_label);
}

}  // namespace cloudwf::adaptive
