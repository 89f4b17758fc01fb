// cloudwf — command-line front-end to the simulator.
//
//   cloudwf list
//   cloudwf run     --workflow <name|file> --strategy <label>
//                   [--scenario pareto|best-case|worst-case] [--seed N]
//                   [--gantt] [--csv] [--dot <out.dot>]
//   cloudwf compare --workflow <name|file> [--scenario ...] [--seed N]
//                   [--baselines]
//   cloudwf advise  --workflow <name|file> [--objective savings|gain|balanced]
//   cloudwf plan    --workflow <name|file> [--budget <usd>] [--deadline <s>]
//                   [--scenario ...] [--seed N]
//   cloudwf report  [--out <file.md>] [--seed N]
//   cloudwf artifacts [--out <dir>] [--seed N]
//   cloudwf diff    --workflow <name|file> --strategy <A> --vs <B>
//                   [--scenario ...] [--seed N]
//   cloudwf trace   --workflow <name|file> --strategy <label>
//                   [--scenario ...] [--seed N] [--out <prefix>]
//   cloudwf serve   [--port N] [--workers N] [--queue-depth N]
//                   [--timeout-ms N] [--max-connections N]
//                   [--event-loop-threads N] [--response-cache N]
//                   [--bind ADDR] [--auth-token SECRET]
//   cloudwf sweep   [--workflows a,b] [--scenarios s,t] [--strategies x,y]
//                   [--seeds B:E] [--out FILE] [--verify]
//                   [--distributed --connect host:port,... | --listen-port P]
//                   [--shards N] [--shards-per-worker N]
//                   [--lease-timeout-ms N] [--max-attempts N]
//                   [--auth-token SECRET] [--json]
//   cloudwf worker  --connect host:port [--delay-ms N] [--max-shards N]
//                   [--poll-ms N]
//   cloudwf check   [--cases N] [--seed N] [--threads N] [--large-tasks N]
//                   [--json]
//   cloudwf constrained --workflow <name|file> [--deadline-factor F]
//                   [--budget-factor F] [--seed N] [--search]
//                   [--iterations N]
//   cloudwf mtsim   [--tenants N] [--policy exclusive|shared|weighted-fair]
//                   [--arrival lambda] [--jobs M] [--workflow <name|file>]
//                   [--provisioning <kind>] [--sigma S] [--quota Q]
//                   [--quantum S] [--seed N] [--json]
//   cloudwf help
//
// Workflow names: montage, cstem, mapreduce, sequential, epigenomics,
// cybershake, ligo, sipht; "family:N" scales a Pegasus family to >= N tasks
// (e.g. epigenomics:1000); anything else is treated as a workflow file in
// the dag/io text format.
#include <chrono>
#include <csignal>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <fstream>

#include "adaptive/advisor.hpp"
#include "adaptive/markdown_report.hpp"
#include "check/differential.hpp"
#include "check/shard_merge.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "exp/sweep_grid.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "sim/event_sim.hpp"
#include "dag/edge_dsl.hpp"
#include "dag/science.hpp"
#include "exp/artifacts.hpp"
#include "dag/dot.hpp"
#include "dag/io.hpp"
#include "exp/pareto_front.hpp"
#include "exp/planner.hpp"
#include "exp/report.hpp"
#include "check/mt_oracle.hpp"
#include "scheduling/factory.hpp"
#include "sim/gantt.hpp"
#include "tenant/billing.hpp"
#include "tenant/shared_pool.hpp"
#include "sim/schedule_diff.hpp"
#include "sim/validator.hpp"
#include "sim/vm_report.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"

namespace {

using namespace cloudwf;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;

  [[nodiscard]] std::optional<std::string> option(const std::string& key) const {
    const auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] bool flag(const std::string& name) const {
    for (const std::string& f : flags)
      if (f == name) return true;
    return false;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0)
      throw std::runtime_error("unexpected argument '" + tok + "'");
    const std::string name = tok.substr(2);
    // Options with values: workflow/strategy/scenario/seed/objective/dot.
    if (name == "workflow" || name == "strategy" || name == "scenario" ||
        name == "seed" || name == "objective" || name == "dot" ||
        name == "budget" || name == "deadline" || name == "out" ||
        name == "vs" || name == "port" || name == "workers" ||
        name == "queue-depth" || name == "timeout-ms" ||
        name == "max-connections" || name == "event-loop-threads" ||
        name == "response-cache" || name == "cases" || name == "threads" ||
        name == "large-tasks" || name == "tenants" || name == "policy" ||
        name == "arrival" || name == "jobs" || name == "provisioning" ||
        name == "sigma" || name == "quota" || name == "quantum" ||
        name == "workflows" || name == "scenarios" || name == "strategies" ||
        name == "seeds" || name == "connect" || name == "listen-port" ||
        name == "shards" || name == "shards-per-worker" ||
        name == "lease-timeout-ms" || name == "max-attempts" ||
        name == "auth-token" || name == "bind" || name == "delay-ms" ||
        name == "max-shards" || name == "poll-ms" ||
        name == "deadline-factor" || name == "budget-factor" ||
        name == "iterations") {
      if (i + 1 >= argc)
        throw std::runtime_error("--" + name + " needs a value");
      args.options[name] = argv[++i];
    } else {
      args.flags.push_back(name);
    }
  }
  return args;
}

dag::Workflow resolve_workflow(const std::string& spec) {
  if (const exp::NamedWorkflow* w = exp::find_named_workflow(spec))
    return w->build();
  // "family:N" scales a Pegasus family to >= N tasks, e.g. epigenomics:1000.
  if (const std::size_t colon = spec.find(':');
      colon != std::string::npos && spec.find("->") == std::string::npos) {
    const std::string head = spec.substr(0, colon);
    for (const dag::science::Family f : dag::science::kAllFamilies)
      if (head == dag::science::name_of(f))
        return dag::science::scaled(
            f, util::parse_size(spec.substr(colon + 1),
                                "--workflow " + head + ":N", 1, 1000000));
  }
  // A spec containing "->" is an inline edge-DSL workflow
  // (e.g. --workflow "a:600 -> b; a -> c; b, c -> d").
  if (spec.find("->") != std::string::npos)
    return dag::parse_edge_dsl(spec, "inline");
  return dag::load_workflow(spec);
}

bool scenario_is_as_is(const Args& args) {
  return args.option("scenario").value_or("") == "as-is";
}

workload::ScenarioKind resolve_scenario(const Args& args) {
  const std::string name = args.option("scenario").value_or("pareto");
  for (workload::ScenarioKind kind : workload::kAllScenarioKinds) {
    if (name == workload::name_of(kind)) return kind;
  }
  throw std::runtime_error(
      "unknown scenario '" + name +
      "' (pareto|best-case|worst-case|data-intensive|cold-start|"
      "variable-price|deadline-budget|as-is)");
}

/// The platform a manual run must schedule and bill on: the scenario's
/// environment (cold-start delays, price schedule) when a kind is selected,
/// the plain base platform for --scenario as-is.
cloud::Platform resolve_platform(const exp::ExperimentRunner& runner,
                                 const Args& args) {
  if (scenario_is_as_is(args)) return runner.platform();
  return runner.scenario_platform(resolve_scenario(args));
}

/// The workflow a run should schedule: scenario-materialized, or verbatim
/// when --scenario as-is keeps the workflow's own runtimes (DSL/file works).
dag::Workflow materialize_or_keep(const exp::ExperimentRunner& runner,
                                  const dag::Workflow& structure,
                                  const Args& args) {
  if (scenario_is_as_is(args)) return structure;
  return runner.materialize(structure, resolve_scenario(args));
}

exp::ExperimentRunner make_runner(const Args& args) {
  workload::ScenarioConfig cfg;
  if (const auto seed = args.option("seed"))
    cfg.seed = util::parse_u64(*seed, "--seed");
  if (const auto f = args.option("deadline-factor"))
    cfg.deadline_factor = util::parse_double(*f, "--deadline-factor", 1e-6, 1e6);
  if (const auto f = args.option("budget-factor"))
    cfg.budget_factor = util::parse_double(*f, "--budget-factor", 1e-6, 1e6);
  return exp::ExperimentRunner(cloud::Platform::ec2(), cfg);
}

int cmd_list() {
  std::cout << "workflows: montage cstem mapreduce sequential "
               "epigenomics cybershake ligo sipht (or a .wf file)\n\n";
  std::cout << "paper strategies (Fig. 4 legend order):\n";
  for (const std::string& label : scheduling::paper_strategy_labels())
    std::cout << "  " << label << '\n';
  std::cout << "\nbaseline strategies (related work):\n";
  for (const scheduling::Strategy& s : scheduling::baseline_strategies())
    std::cout << "  " << s.label << '\n';
  std::cout << "\nscenarios: pareto best-case worst-case data-intensive "
               "cold-start variable-price deadline-budget\n";
  return 0;
}

int cmd_run(const Args& args) {
  const auto wf_spec = args.option("workflow");
  const auto strategy_label = args.option("strategy");
  if (!wf_spec || !strategy_label)
    throw std::runtime_error("run needs --workflow and --strategy");

  const exp::ExperimentRunner runner = make_runner(args);
  const dag::Workflow structure = resolve_workflow(*wf_spec);
  const dag::Workflow wf = materialize_or_keep(runner, structure, args);
  const scheduling::Strategy strategy =
      scheduling::strategy_by_label(*strategy_label);
  const cloud::Platform platform = resolve_platform(runner, args);

  const sim::Schedule schedule = strategy.scheduler->run(wf, platform);
  sim::validate_or_throw(wf, schedule, platform);
  const sim::ScheduleMetrics m = sim::compute_metrics(wf, schedule, platform);

  std::cout << "workflow " << wf.name() << " (" << wf.task_count()
            << " tasks), strategy " << strategy.label << '\n'
            << "  makespan " << m.makespan << " s\n"
            << "  cost     " << m.total_cost << " (" << m.total_btus
            << " BTUs, " << m.vms_used << " VMs)\n"
            << "  idle     " << m.total_idle << " s (utilization "
            << 100.0 * m.utilization << " %)\n";

  if (args.flag("gantt")) std::cout << '\n' << sim::render_gantt(wf, schedule);
  if (args.flag("vms"))
    std::cout << '\n'
              << sim::vm_report_table(sim::vm_report(schedule, platform));
  if (args.flag("csv")) std::cout << '\n' << sim::gantt_csv(wf, schedule);
  if (const auto dot = args.option("dot")) {
    dag::save_workflow(wf, *dot + ".wf");
    std::cout << "\nwrote " << *dot << ".wf\n";
  }
  return 0;
}

int cmd_compare(const Args& args) {
  const auto wf_spec = args.option("workflow");
  if (!wf_spec) throw std::runtime_error("compare needs --workflow");

  const exp::ExperimentRunner runner = make_runner(args);
  const dag::Workflow structure = resolve_workflow(*wf_spec);
  const workload::ScenarioKind kind = resolve_scenario(args);

  std::vector<exp::RunResult> results = runner.run_all(structure, kind);
  if (args.flag("baselines")) {
    for (const scheduling::Strategy& s : scheduling::baseline_strategies())
      results.push_back(runner.run_one(s, structure, kind));
  }
  std::cout << exp::results_table(results);
  if (args.flag("front")) {
    std::cout << "\n(makespan, cost) Pareto front:\n"
              << exp::pareto_front_table(exp::pareto_front(results));
  }
  return 0;
}

int cmd_advise(const Args& args) {
  const auto wf_spec = args.option("workflow");
  if (!wf_spec) throw std::runtime_error("advise needs --workflow");

  const exp::ExperimentRunner runner = make_runner(args);
  const dag::Workflow wf = runner.materialize(resolve_workflow(*wf_spec),
                                              workload::ScenarioKind::pareto);
  const adaptive::WorkflowFeatures features = adaptive::compute_features(wf);
  std::cout << adaptive::describe(features) << "\n\n";

  const std::string objective = args.option("objective").value_or("");
  for (adaptive::Objective obj :
       {adaptive::Objective::savings, adaptive::Objective::gain,
        adaptive::Objective::balanced}) {
    if (!objective.empty() && objective != name_of(obj)) continue;
    const adaptive::Advice advice = adaptive::advise(features, obj);
    std::cout << name_of(obj) << ": " << advice.strategy_label << "\n  ("
              << advice.rationale << ")\n";
  }
  return 0;
}

int cmd_diff(const Args& args) {
  const auto wf_spec = args.option("workflow");
  const auto label_a = args.option("strategy");
  const auto label_b = args.option("vs");
  if (!wf_spec || !label_a || !label_b)
    throw std::runtime_error("diff needs --workflow, --strategy and --vs");

  const exp::ExperimentRunner runner = make_runner(args);
  const dag::Workflow wf =
      materialize_or_keep(runner, resolve_workflow(*wf_spec), args);
  const cloud::Platform platform = resolve_platform(runner, args);

  const sim::Schedule before =
      scheduling::strategy_by_label(*label_a).scheduler->run(wf, platform);
  const sim::Schedule after =
      scheduling::strategy_by_label(*label_b).scheduler->run(wf, platform);
  std::cout << *label_a << " -> " << *label_b << " on " << wf.name() << ":\n"
            << sim::render_diff(
                   sim::diff_schedules(wf, before, after, platform));
  return 0;
}

int cmd_report(const Args& args) {
  const exp::ExperimentRunner runner = make_runner(args);
  const std::string report = adaptive::markdown_report(runner);
  if (const auto out = args.option("out")) {
    std::ofstream file(*out);
    if (!file) throw std::runtime_error("cannot open " + *out);
    file << report;
    std::cout << "wrote " << report.size() << " bytes to " << *out << '\n';
  } else {
    std::cout << report;
  }
  return 0;
}

int cmd_artifacts(const Args& args) {
  const exp::ExperimentRunner runner = make_runner(args);
  const std::string dir = args.option("out").value_or("reproduction_artifacts");
  const exp::ArtifactManifest manifest =
      exp::write_reproduction_artifacts(dir, runner);
  std::cout << "wrote " << manifest.files.size() << " files to "
            << manifest.directory.string() << '\n';
  return 0;
}

int cmd_trace(const Args& args) {
  const auto wf_spec = args.option("workflow");
  const auto strategy_label = args.option("strategy");
  if (!wf_spec || !strategy_label)
    throw std::runtime_error("trace needs --workflow and --strategy");

  const exp::ExperimentRunner runner = make_runner(args);
  const dag::Workflow structure = resolve_workflow(*wf_spec);
  const dag::Workflow wf = materialize_or_keep(runner, structure, args);
  const scheduling::Strategy strategy =
      scheduling::strategy_by_label(*strategy_label);
  const cloud::Platform platform = resolve_platform(runner, args);

  obs::TraceRecorder recorder;
  sim::ScheduleMetrics m;
  sim::ReplayResult replay;
  {
    obs::ScopedRecording recording(recorder);
    const sim::Schedule schedule = [&] {
      obs::PhaseScope phase("cli: schedule");
      return strategy.scheduler->run(wf, platform);
    }();
    {
      obs::PhaseScope phase("cli: validate");
      sim::validate_or_throw(wf, schedule, platform);
    }
    {
      obs::PhaseScope phase("cli: replay");
      replay = sim::EventSimulator(platform).replay(wf, schedule);
    }
    {
      obs::PhaseScope phase("cli: metrics");
      m = sim::compute_metrics(wf, schedule, platform);
    }
  }

  const std::vector<obs::TraceEvent> events = recorder.drain();
  const std::string prefix = args.option("out").value_or("cloudwf-trace");
  const std::string chrome_path = prefix + ".trace.json";
  const std::string jsonl_path = prefix + ".jsonl";
  {
    std::ofstream chrome(chrome_path);
    if (!chrome) throw std::runtime_error("cannot open " + chrome_path);
    chrome << obs::to_chrome_trace(events);
  }
  {
    std::ofstream jsonl(jsonl_path);
    if (!jsonl) throw std::runtime_error("cannot open " + jsonl_path);
    jsonl << obs::to_jsonl(events);
  }

  std::cout << "workflow " << wf.name() << " (" << wf.task_count()
            << " tasks), strategy " << strategy.label << '\n'
            << "  makespan " << m.makespan << " s (replay " << replay.makespan
            << " s, " << replay.events_processed << " events)\n"
            << "  cost     " << m.total_cost << " (" << m.total_btus
            << " BTUs, " << m.vms_used << " VMs)\n\n"
            << "decision log:\n"
            << obs::decision_log(events) << '\n'
            << "counters: " << obs::counters_summary(recorder.counters()) << '\n'
            << "phases:\n"
            << obs::phase_summary(recorder.phase_stats()) << '\n'
            << "wrote " << chrome_path << " (chrome://tracing / Perfetto) and "
            << jsonl_path << '\n';
  return 0;
}

int cmd_plan(const Args& args) {
  const auto wf_spec = args.option("workflow");
  if (!wf_spec) throw std::runtime_error("plan needs --workflow");

  const exp::ExperimentRunner runner = make_runner(args);
  exp::PlanConstraints constraints;
  if (const auto b = args.option("budget"))
    constraints.budget =
        util::Money::from_dollars(util::parse_double(*b, "--budget", 0.0));
  if (const auto d = args.option("deadline"))
    constraints.deadline = util::parse_double(*d, "--deadline", 0.0);

  const exp::PlanOutcome outcome = exp::plan(
      runner, resolve_workflow(*wf_spec), constraints, resolve_scenario(args));
  std::cout << (outcome.feasible ? "plan: " : "no feasible plan; best effort: ")
            << outcome.strategy << " (makespan " << outcome.metrics.makespan
            << " s, cost " << outcome.metrics.total_cost << ")\n\n";
  std::cout << exp::plan_table(outcome, constraints);
  return outcome.feasible ? 0 : 2;
}

// Deadline/budget feasibility over the paper strategy set, under the
// `deadline-budget` scenario environment. Constraints are factors of the
// OneVMperTask-s reference (--deadline-factor, --budget-factor); --search
// additionally probes the wider (policy x ordering x size) configuration
// space with a seeded stochastic search. Exit 0 when something feasible
// exists, 2 when nothing fits.
int cmd_constrained(const Args& args) {
  const auto wf_spec = args.option("workflow");
  if (!wf_spec) throw std::runtime_error("constrained needs --workflow");

  const exp::ExperimentRunner runner = make_runner(args);
  const dag::Workflow structure = resolve_workflow(*wf_spec);
  constexpr workload::ScenarioKind kind = workload::ScenarioKind::constrained;

  const std::vector<exp::RunResult> results = runner.run_all(structure, kind);
  exp::ConstraintSpec spec;
  spec.deadline_factor = runner.base_config().deadline_factor;
  spec.budget_factor = runner.base_config().budget_factor;
  const exp::Constraints constraints = exp::derive_constraints(results, spec);
  const exp::ConstrainedReport report =
      exp::classify_constrained(results, constraints);

  std::cout << "workflow " << structure.name() << ", deadline "
            << util::format_double(constraints.deadline, 1) << " s ("
            << util::format_double(spec.deadline_factor, 2)
            << "x reference), budget " << constraints.budget << " ("
            << util::format_double(spec.budget_factor, 2)
            << "x reference):\n\n"
            << exp::constrained_table(report) << '\n'
            << report.feasible_count() << "/" << report.points.size()
            << " strategies feasible\n";

  bool any_feasible = report.best >= 0;
  if (args.flag("search")) {
    exp::SearchConfig search;
    if (const auto it = args.option("iterations"))
      search.iterations = util::parse_size(*it, "--iterations", 1, 1000000);
    if (const auto seed = args.option("seed"))
      search.seed = util::parse_u64(*seed, "--seed");
    const exp::SearchResult found = exp::stochastic_search(
        runner.materialize(structure, kind), runner.scenario_platform(kind),
        constraints, search);
    std::cout << "\nstochastic search (" << found.evaluated.size()
              << " distinct configurations):\n";
    if (found.best >= 0) {
      const exp::SearchCandidate& best =
          found.evaluated[static_cast<std::size_t>(found.best)];
      std::cout << "  best: " << best.label << " (makespan "
                << util::format_double(best.metrics.makespan, 1) << " s, cost "
                << best.metrics.total_cost << ")\n";
      any_feasible = true;
    } else {
      std::cout << "  no feasible configuration found\n";
    }
  }
  return any_feasible ? 0 : 2;
}

int cmd_serve(const Args& args) {
  svc::ServerConfig config;
  if (const auto port = args.option("port"))
    config.port = util::parse_u16(*port, "--port");
  if (const auto workers = args.option("workers"))
    config.workers = util::parse_size(*workers, "--workers", 1);
  if (const auto depth = args.option("queue-depth"))
    config.max_queue = util::parse_size(*depth, "--queue-depth", 1);
  if (const auto timeout = args.option("timeout-ms"))
    config.request_timeout =
        std::chrono::milliseconds(util::parse_u64(*timeout, "--timeout-ms"));
  if (const auto conns = args.option("max-connections"))
    config.max_connections = util::parse_size(*conns, "--max-connections", 1);
  if (const auto loops = args.option("event-loop-threads"))
    config.event_loop_threads =
        util::parse_size(*loops, "--event-loop-threads");
  if (const auto cache = args.option("response-cache"))
    config.response_cache_entries =
        util::parse_size(*cache, "--response-cache");
  if (const auto bind = args.option("bind")) config.bind_address = *bind;
  if (const auto token = args.option("auth-token")) config.auth_token = *token;

  // Block SIGTERM/SIGINT before any thread exists so every service thread
  // inherits the mask; the main thread then sigwait()s and turns the signal
  // into a graceful drain instead of an abrupt exit.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  svc::Server server(config);
  server.start();
  std::cout << "cloudwf serve: listening on " << config.bind_address << ':'
            << server.port() << " (" << server.event_loop_count()
            << " event loops, " << config.workers << " workers, queue depth "
            << config.max_queue << ", timeout "
            << config.request_timeout.count() << " ms"
            << (config.auth_token.empty() ? "" : ", auth required") << ")\n"
            << "endpoints: GET /health, GET /stats, POST /v1/evaluate, "
               "POST /v1/rank, POST /v1/shard — SIGTERM drains and exits\n"
            << std::flush;

  int signal_number = 0;
  sigwait(&signals, &signal_number);
  std::cout << "cloudwf serve: received "
            << (signal_number == SIGTERM ? "SIGTERM" : "SIGINT")
            << ", draining...\n"
            << std::flush;
  server.stop();

  const svc::ServiceCounters& counters = server.counters();
  std::cout << "cloudwf serve: drained — "
            << counters.requests_total.load() << " requests ("
            << counters.responses_ok.load() << " ok, "
            << counters.rejected_429.load() << " rejected 429, "
            << counters.batches_run.load() << " batches, "
            << counters.requests_coalesced.load() << " coalesced)\n";
  return 0;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string item =
        comma == std::string::npos ? text.substr(pos)
                                   : text.substr(pos, comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::pair<std::string, std::uint16_t> parse_host_port(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size())
    throw std::runtime_error("expected host:port, got '" + spec + "'");
  return {spec.substr(0, colon),
          util::parse_u16(spec.substr(colon + 1), "--connect port", 1)};
}

/// The sweep grid from --workflows/--scenarios/--strategies/--seeds.
/// --seeds takes an inclusive "begin:end" range (a bare N means N:N);
/// --strategies defaults to the full 19-strategy paper legend.
exp::SweepGridSpec parse_grid(const Args& args) {
  exp::SweepGridSpec grid;
  grid.workflows = split_csv(args.option("workflows").value_or("montage"));
  for (const std::string& name :
       split_csv(args.option("scenarios").value_or("pareto")))
    grid.scenarios.push_back(svc::parse_scenario(name));
  if (const auto strategies = args.option("strategies"))
    grid.strategies = split_csv(*strategies);
  else
    grid.strategies = scheduling::paper_strategy_labels();
  const std::string seeds = args.option("seeds").value_or("0");
  const std::size_t colon = seeds.find(':');
  grid.seed_begin = util::parse_u64(seeds.substr(0, colon), "--seeds");
  grid.seed_end = colon == std::string::npos
                      ? grid.seed_begin
                      : util::parse_u64(seeds.substr(colon + 1), "--seeds");
  exp::validate_grid(grid);
  return grid;
}

dist::TrackerConfig parse_tracker(const Args& args) {
  dist::TrackerConfig tracker;
  if (const auto ms = args.option("lease-timeout-ms"))
    tracker.lease_timeout =
        std::chrono::milliseconds(util::parse_u64(*ms, "--lease-timeout-ms"));
  if (const auto attempts = args.option("max-attempts"))
    tracker.max_attempts = util::parse_size(*attempts, "--max-attempts", 1);
  return tracker;
}

void print_sweep_stats(const dist::SweepOutcome& outcome) {
  std::cerr << "cloudwf sweep: " << outcome.shard_count << " shards, "
            << outcome.stats.leases_granted << " leases ("
            << outcome.stats.reissues_expired << " expired re-issues, "
            << outcome.stats.reissues_speculative << " speculative), "
            << outcome.stats.duplicates_discarded << " duplicates, "
            << outcome.stats.failures_reported << " failures\n";
}

// The full strategy x seed x scenario x workflow sweep, serial by default
// or sharded across workers with --distributed. The canonical table goes to
// stdout (or --out) and every diagnostic to stderr, so the serial and
// distributed outputs of the same grid can be compared byte for byte —
// that identity is the fabric's core guarantee and the CI smoke `cmp`s it.
int cmd_sweep(const Args& args) {
  const exp::SweepGridSpec grid = parse_grid(args);
  const cloud::Platform platform = cloud::Platform::ec2();

  std::vector<exp::SweepRow> rows;
  if (!args.flag("distributed")) {
    std::cerr << "cloudwf sweep: serial, " << grid.cell_count() << " cells\n";
    rows = exp::run_grid_serial(grid, platform);
  } else if (const auto connect = args.option("connect")) {
    // Push mode: drive a fleet of `cloudwf serve` instances over /v1/shard.
    dist::CoordinatorOptions options;
    options.tracker = parse_tracker(args);
    if (const auto per = args.option("shards-per-worker"))
      options.shards_per_worker =
          util::parse_size(*per, "--shards-per-worker", 1);
    std::vector<std::shared_ptr<dist::ShardTransport>> workers;
    for (const std::string& spec : split_csv(*connect)) {
      dist::HttpShardTransport::Options remote;
      std::tie(remote.host, remote.port) = parse_host_port(spec);
      remote.binary = !args.flag("json");
      remote.auth_token = args.option("auth-token").value_or("");
      workers.push_back(std::make_shared<dist::HttpShardTransport>(remote));
    }
    if (workers.empty())
      throw std::runtime_error("--connect needs at least one host:port");
    std::cerr << "cloudwf sweep: distributed push, " << grid.cell_count()
              << " cells over " << workers.size() << " workers\n";
    dist::SweepOutcome outcome =
        dist::run_distributed(grid, workers, options);
    print_sweep_stats(outcome);
    rows = std::move(outcome.rows);
  } else {
    // Pull mode: serve shard leases to `cloudwf worker` processes.
    dist::CoordinatorServer::Config config;
    config.tracker = parse_tracker(args);
    if (const auto port = args.option("listen-port"))
      config.port = util::parse_u16(*port, "--listen-port");
    const std::size_t shard_count = util::parse_size(
        args.option("shards").value_or("8"), "--shards", 1, 1 << 20);
    dist::CoordinatorServer server(exp::partition_grid(grid, shard_count),
                                   config);
    server.start();
    std::cerr << "cloudwf sweep: coordinator on 127.0.0.1:" << server.port()
              << ", " << grid.cell_count() << " cells — waiting for workers "
              << "(cloudwf worker --connect 127.0.0.1:" << server.port()
              << ")\n";
    dist::SweepOutcome outcome = server.finish();
    print_sweep_stats(outcome);
    rows = std::move(outcome.rows);
  }

  if (args.flag("verify")) {
    // Shard-merge oracle: order check over every row, then sampled cells
    // re-executed and run through the 8-invariant schedule oracle.
    const check::ShardMergeReport report =
        check::check_shard_merge(grid, rows, platform);
    std::cerr << "cloudwf sweep: merge oracle " << (report.ok() ? "ok" : "VIOLATIONS")
              << " (" << report.cells_checked << " rows checked, "
              << report.cells_verified << " cells re-verified)\n";
    if (!report.ok()) {
      std::cerr << report.to_string() << '\n';
      return 2;
    }
  }

  const std::string table = exp::sweep_table(grid, rows);
  if (const auto out = args.option("out")) {
    std::ofstream file(*out);
    if (!file) throw std::runtime_error("cannot write " + *out);
    file << table;
    std::cerr << "cloudwf sweep: wrote " << *out << '\n';
  } else {
    std::cout << table;
  }
  return 0;
}

// Pull-mode worker: lease shards from a `cloudwf sweep --distributed`
// coordinator, execute, stream rows back. --delay-ms and --max-shards are
// the fault-injection knobs the failure tests and the CI smoke use (a
// straggler, and a worker killed mid-sweep).
int cmd_worker(const Args& args) {
  const auto connect = args.option("connect");
  if (!connect)
    throw std::runtime_error("cloudwf worker needs --connect host:port");
  dist::WorkerOptions options;
  std::tie(options.host, options.port) = parse_host_port(*connect);
  if (const auto ms = args.option("delay-ms"))
    options.delay_per_shard =
        std::chrono::milliseconds(util::parse_u64(*ms, "--delay-ms"));
  if (const auto shards = args.option("max-shards"))
    options.max_shards = util::parse_size(*shards, "--max-shards", 1);
  if (const auto ms = args.option("poll-ms"))
    options.poll_interval =
        std::chrono::milliseconds(util::parse_u64(*ms, "--poll-ms"));

  const dist::WorkerReport report = dist::run_worker(options);
  std::cout << "cloudwf worker: " << report.shards_completed << " completed, "
            << report.shards_duplicate << " duplicate, "
            << report.shards_failed << " failed"
            << (report.finished ? ", sweep finished" : "") << '\n';
  // Success = the sweep finished or this worker contributed work before
  // exiting (a --max-shards budget exit, or the coordinator went away after
  // accepting results). Connecting and doing nothing is the failure case.
  const bool contributed =
      report.shards_completed > 0 || report.shards_duplicate > 0;
  return report.finished || contributed ? 0 : 1;
}

int cmd_check(const Args& args) {
  check::DifferentialConfig config;
  if (const auto cases = args.option("cases"))
    config.cases = util::parse_size(*cases, "--cases", 1);
  if (const auto seed = args.option("seed"))
    config.seed = util::parse_u64(*seed, "--seed");
  if (const auto threads = args.option("threads"))
    config.fast_path_threads = util::parse_size(*threads, "--threads");
  if (const auto large = args.option("large-tasks"))
    config.large_case_tasks = util::parse_size(*large, "--large-tasks", 1);
  const bool json = args.flag("json");

  const check::DifferentialResult result = check::run_differential(
      config, [json](std::size_t done, std::size_t total) {
        if (!json && (done % 10 == 0 || done == total))
          std::cerr << "check: " << done << "/" << total << " cases\r"
                    << (done == total ? "\n" : "") << std::flush;
      });

  if (json) {
    std::cout << result.to_json().dump() << '\n';
  } else {
    std::cout << "differential check: " << result.cases.size() << " cases, "
              << result.schedules_checked << " schedules checked, "
              << result.divergences.size() << " divergences\n";
    for (const check::Divergence& d : result.divergences)
      std::cout << "  case " << d.case_index << " " << d.strategy << " ["
                << d.side << "/" << d.kind << "]: " << d.detail << '\n';
  }
  return result.ok() ? 0 : 2;
}

// Multi-tenant shared-pool simulation: N tenants (weights 1..N), M jobs of
// the same materialized workflow assigned round-robin, Poisson arrivals,
// one shared VM pool under the chosen sharing policy. Every run is oracle-
// checked and billed; --json emits the full deterministic result (the CI
// determinism gate diffs two fixed-seed runs byte-for-byte).
int cmd_mtsim(const Args& args) {
  const std::size_t tenant_count = util::parse_size(
      args.option("tenants").value_or("3"), "--tenants", 1, 10000);
  const std::string policy_name = args.option("policy").value_or("shared");
  const std::optional<tenant::SharingPolicy> policy =
      tenant::parse_policy(policy_name);
  if (!policy)
    throw std::runtime_error("unknown policy '" + policy_name +
                             "' (exclusive|shared|weighted-fair)");
  const double lambda = util::parse_double(
      args.option("arrival").value_or("0.002"), "--arrival", 1e-12);
  const std::size_t job_count = util::parse_size(
      args.option("jobs").value_or(std::to_string(2 * tenant_count)), "--jobs",
      1);
  const std::uint64_t seed =
      util::parse_u64(args.option("seed").value_or("0"), "--seed");

  tenant::SimConfig cfg;
  cfg.policy = *policy;
  cfg.sigma =
      util::parse_double(args.option("sigma").value_or("0"), "--sigma", 0.0);
  cfg.actuals_seed = 0x7e2013u ^ seed;
  if (const auto quantum = args.option("quantum"))
    cfg.drr_quantum = util::parse_double(*quantum, "--quantum", 1e-12);
  if (const auto prov = args.option("provisioning")) {
    bool found = false;
    for (const provisioning::ProvisioningKind kind :
         {provisioning::ProvisioningKind::one_vm_per_task,
          provisioning::ProvisioningKind::start_par_not_exceed,
          provisioning::ProvisioningKind::start_par_exceed}) {
      if (*prov == provisioning::name_of(kind)) {
        cfg.provisioning = kind;
        found = true;
      }
    }
    if (!found)
      throw std::runtime_error(
          "unknown provisioning '" + *prov +
          "' (OneVMperTask|StartParNotExceed|StartParExceed)");
  }

  tenant::TenantRegistry registry;
  for (std::size_t i = 0; i < tenant_count; ++i) {
    tenant::TenantSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.weight = static_cast<double>(i + 1);  // distinct fair-share weights
    if (const auto quota = args.option("quota"))
      spec.max_running = util::parse_size(*quota, "--quota", 1);
    registry.add(std::move(spec));
  }

  const exp::ExperimentRunner runner = make_runner(args);
  const dag::Workflow wf = materialize_or_keep(
      runner, resolve_workflow(args.option("workflow").value_or("montage")),
      args);

  util::Rng arrival_rng(seed ^ 0x9e3779b97f4a7c15ull);
  const std::vector<util::Seconds> arrivals =
      tenant::poisson_arrivals(job_count, lambda, arrival_rng);
  std::vector<tenant::JobSpec> jobs;
  jobs.reserve(job_count);
  for (std::size_t j = 0; j < job_count; ++j)
    jobs.push_back({static_cast<tenant::TenantId>(j % tenant_count), wf,
                    arrivals[j]});

  const tenant::MultiTenantResult result =
      tenant::run_shared_pool(registry, jobs, runner.platform(), cfg);
  const check::OracleReport report =
      check::check_multi_tenant(registry, jobs, result, runner.platform());
  const tenant::BillingBreakdown billing = tenant::attribute_billing(
      result.pool, runner.platform().regions(), registry,
      [&](dag::TaskId global) { return result.tenant_of(global, jobs); });

  if (args.flag("json")) {
    util::Json body = util::Json::object();
    util::Json config = util::Json::object();
    config["tenants"] = static_cast<std::int64_t>(tenant_count);
    config["policy"] = std::string(tenant::name_of(cfg.policy));
    config["provisioning"] =
        std::string(provisioning::name_of(cfg.provisioning));
    config["arrival"] = lambda;
    config["jobs"] = static_cast<std::int64_t>(job_count);
    config["workflow"] = std::string(wf.name());
    config["sigma"] = cfg.sigma;
    config["seed"] = static_cast<std::int64_t>(seed);
    body["config"] = std::move(config);
    body["makespan_s"] = result.makespan;
    body["dispatched"] = static_cast<std::int64_t>(result.dispatched);
    body["pool_vms"] = static_cast<std::int64_t>(result.pool.size());
    body["rental_cost_micros"] = billing.total.micros();
    body["oracle_ok"] = report.ok();
    util::Json rows = util::Json::array();
    for (tenant::TenantId id = 0; id < registry.size(); ++id) {
      const tenant::TenantStats& stats = result.tenants[id];
      const tenant::TenantBill& bill = billing.bills[id];
      util::Json row = util::Json::object();
      row["name"] = registry.spec(id).name;
      row["weight"] = registry.spec(id).weight;
      row["jobs"] = static_cast<std::int64_t>(stats.jobs);
      row["tasks"] = static_cast<std::int64_t>(stats.tasks);
      row["vms_rented"] = static_cast<std::int64_t>(stats.vms_rented);
      row["quota_deferrals"] =
          static_cast<std::int64_t>(stats.quota_deferrals);
      row["busy_s"] = stats.busy;
      row["flow_s"] = stats.total_flow;
      row["bill_micros"] = bill.cost.micros();
      row["idle_share_s"] = bill.idle_share;
      rows.push_back(std::move(row));
    }
    body["tenants_detail"] = std::move(rows);
    std::cout << body.dump() << '\n';
    return report.ok() ? 0 : 2;
  }

  std::cout << "mtsim: " << tenant_count << " tenants, " << job_count
            << " jobs of " << wf.name() << " (" << wf.task_count()
            << " tasks each), policy " << tenant::name_of(cfg.policy)
            << ", provisioning " << provisioning::name_of(cfg.provisioning)
            << ", lambda " << lambda << "/s\n"
            << "  makespan    " << result.makespan << " s\n"
            << "  pool        " << result.pool.size() << " VMs, rental "
            << billing.total.to_string() << '\n'
            << "  oracle      " << (report.ok() ? "ok" : "VIOLATIONS") << '\n';
  for (tenant::TenantId id = 0; id < registry.size(); ++id) {
    const tenant::TenantStats& stats = result.tenants[id];
    const tenant::TenantBill& bill = billing.bills[id];
    std::cout << "  " << registry.spec(id).name << " (w="
              << registry.spec(id).weight << "): " << stats.jobs << " jobs, "
              << stats.tasks << " tasks, " << stats.vms_rented
              << " VMs rented, busy " << stats.busy << " s, flow "
              << stats.total_flow << " s, bill " << bill.cost.to_string()
              << " (" << stats.quota_deferrals << " quota deferrals)\n";
  }
  if (!report.ok()) std::cout << report.to_string() << '\n';
  return report.ok() ? 0 : 2;
}

// Every subcommand, one per line, in dispatch order — `help`, `run`,
// `serve` and `trace` all come from this single table so the listing can
// not drift out of sync with what main() accepts.
constexpr const char* kUsage =
    "usage: cloudwf <command> [options]\n"
    "\n"
    "commands:\n"
    "  list       workflows, strategies and scenarios\n"
    "  run        one strategy on one workflow (--workflow, --strategy)\n"
    "  compare    all 19 paper strategies on one workflow (--workflow)\n"
    "  advise     feature-based strategy advice (--workflow)\n"
    "  plan       cheapest feasible strategy under constraints (--workflow)\n"
    "  constrained  deadline/budget feasibility over the strategy set, with\n"
    "             optional stochastic configuration search (--workflow,\n"
    "             --deadline-factor, --budget-factor, --search, --iterations)\n"
    "  report     full markdown reproduction report\n"
    "  artifacts  write the reproduction artifact bundle\n"
    "  diff       compare two strategies' schedules (--strategy, --vs)\n"
    "  trace      run one strategy with obs tracing (--workflow, --strategy)\n"
    "  serve      long-running HTTP simulation service (--port, --workers,\n"
    "             --bind, --auth-token)\n"
    "  sweep      full strategy x seed x scenario grid, serial or sharded\n"
    "             (--workflows, --seeds B:E; --distributed with --connect\n"
    "             host:port,... or --listen-port for cloudwf worker pulls)\n"
    "  worker     pull-mode sweep worker (--connect host:port)\n"
    "  check      randomized differential + oracle sweep (--cases, --seed)\n"
    "  mtsim      multi-tenant shared-pool simulation (--tenants, --policy,\n"
    "             --arrival, --jobs, --quota; oracle-checked and billed)\n"
    "  help       this listing\n"
    "\n"
    "see the header of tools/cloudwf_cli.cpp for per-command options\n";

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "list") return cmd_list();
    if (args.command == "run") return cmd_run(args);
    if (args.command == "compare") return cmd_compare(args);
    if (args.command == "advise") return cmd_advise(args);
    if (args.command == "plan") return cmd_plan(args);
    if (args.command == "constrained") return cmd_constrained(args);
    if (args.command == "report") return cmd_report(args);
    if (args.command == "artifacts") return cmd_artifacts(args);
    if (args.command == "diff") return cmd_diff(args);
    if (args.command == "trace") return cmd_trace(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "sweep") return cmd_sweep(args);
    if (args.command == "worker") return cmd_worker(args);
    if (args.command == "check") return cmd_check(args);
    if (args.command == "mtsim") return cmd_mtsim(args);
    if (args.command == "help" || args.command == "--help") {
      std::cout << kUsage;  // asked-for help goes to stdout and succeeds
      return 0;
    }
    // Bare or unknown command: usage on stderr, failure exit.
    std::cerr << kUsage;
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
