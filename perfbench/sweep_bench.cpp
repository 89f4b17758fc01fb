// sweep-paper and large-dag: serial exp::run_shard over seeded grids.
//
// One operation is one shard covering a whole sub-grid (one workflow, one
// scenario kind, a seed range, the 19 paper strategies), answered by
// exp::run_shard and rendered by exp::sweep_table, as `cloudwf sweep` does.
// The operations come in passes. In the measured window up to three lanes
// (threads) run passes side by side, each one shard at a time, until
// --seconds have gone by. Pass 0 uses fixed seeds and its table digest is
// pinned below; later passes take their seeds from --seed.
//
// Traced: passes are replayed with every operation run twice on the same
// input, once through exp::run_shard (the production call) and once as a
// replica that calls the library's public functions one at a time, each in
// its own span.
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <exception>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <thread>
#include <tuple>

#include "check/oracle.hpp"
#include "common.hpp"
#include "exp/sweep_grid.hpp"
#include "replica.hpp"
#include "scheduling/factory.hpp"
#include "trace.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

namespace exp = cloudwf::exp;
namespace sched = cloudwf::scheduling;
namespace wl = cloudwf::workload;
using cloudwf::util::percentile;

/// At most this many measured-window lanes (see lane_count).
constexpr int kMaxLanes = 3;
/// The traced replay runs whole passes until this much time has gone by.
constexpr double kReplayMs = 1000.0;
/// Seeds per sweep-paper operation: 190 cells.
constexpr std::uint64_t kPaperSeedsPerOp = 10;
/// The percentile of each shard shape's latencies over the passes that the
/// figures are built from (see run_sweep).
constexpr double kShapePercentile = 5.0;
/// Sampled cells re-derived independently and audited by the oracle.
constexpr std::size_t kPaperSampleCells = 12;
/// At most this many sweep-paper operations keep their rows for the checks,
/// so memory does not grow with the number of passes.
constexpr std::size_t kPaperRetainedOps = 16;
constexpr std::size_t kLargeSampleCells = 2;

/// fnv1a of the concatenated sweep tables of pass 0, recorded when the
/// benchmark was defined. A change to any output of pass 0 breaks it.
constexpr std::uint64_t kPaperPass0Digest = 0xc0fa185a9fbc887dull;
constexpr std::uint64_t kLargePass0Digest = 0xa1e16ce65b82fb59ull;

const std::array<std::string, 2> kLargeWorkflows = {"epigenomics:10000",
                                                    "montage:10000"};

class Plan {
 public:
  Plan(bool large, std::uint64_t seed)
      : large_(large),
        base_(1'000'000 + ((splitmix64(seed) >> 24) & ((1ull << 36) - 1))),
        labels_(sched::paper_strategy_labels()) {}

  /// The operations of pass `p`, each one a whole grid.
  [[nodiscard]] std::vector<exp::SweepGridSpec> pass(std::uint64_t p) const {
    std::vector<exp::SweepGridSpec> ops;
    if (large_) {
      const std::uint64_t s = p == 0 ? 0 : base_ + p;
      for (const std::string& w : kLargeWorkflows)
        for (const auto kind :
             {wl::ScenarioKind::pareto, wl::ScenarioKind::cold_start})
          ops.push_back({{w}, {kind}, labels_, s, s});
      return ops;
    }
    const std::uint64_t s = p == 0 ? 0 : base_ + p * kPaperSeedsPerOp;
    for (const std::string& w : kPaperWorkflows)
      for (const auto kind : wl::kAllScenarioKinds)
        ops.push_back({{w}, {kind}, labels_, s, s + kPaperSeedsPerOp - 1});
    return ops;
  }

  /// The set-up's warm-up shard: pass 0's grid in one shard for
  /// sweep-paper; for large-dag both 10^4-task workflows with the
  /// reference strategy only.
  [[nodiscard]] exp::SweepGridSpec warmup() const {
    if (large_)
      return {{kLargeWorkflows.begin(), kLargeWorkflows.end()},
              {wl::ScenarioKind::pareto},
              {"OneVMperTask-s"},
              0,
              0};
    return {{kPaperWorkflows.begin(), kPaperWorkflows.end()},
            {wl::kAllScenarioKinds.begin(), wl::kAllScenarioKinds.end()},
            labels_,
            0,
            kPaperSeedsPerOp - 1};
  }

  [[nodiscard]] std::uint64_t pinned_digest() const {
    return large_ ? kLargePass0Digest : kPaperPass0Digest;
  }

 private:
  bool large_;
  std::uint64_t base_;
  std::vector<std::string> labels_;
};

/// Measured-window lanes: one per CPU the process may run on, less one,
/// and at most three. Each samples its own CPU's speed; on a shared host
/// those move apart, and more lanes average them.
std::size_t lane_count() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int n =
      ::sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  return static_cast<std::size_t>(std::clamp(n - 1, 1, kMaxLanes));
}

exp::ShardSpec whole(const exp::SweepGridSpec& grid) {
  exp::ShardSpec shard;
  shard.cell_end = grid.cell_count();
  shard.grid = grid;
  return shard;
}

/// A measured shard kept for the cell checks: pass p's k-th grid.
struct OpResult {
  std::uint64_t pass = 0;
  std::size_t shape = 0;
  std::vector<exp::SweepRow> rows;
};

/// Rows in canonical cell order carry their cell's seed and strategy.
bool shape_ok(const exp::SweepGridSpec& grid,
              const std::vector<exp::SweepRow>& rows) {
  if (rows.size() != grid.cell_count()) return false;
  for (std::uint64_t i = 0; i < rows.size(); ++i) {
    const exp::GridCell cell = exp::cell_at(grid, i);
    if (rows[i].seed != cell.seed || rows[i].strategy != cell.strategy)
      return false;
  }
  return true;
}

/// Re-derives one cell outside exp::run_shard, audits its schedule with the
/// oracle and compares the row.
bool cell_checks(const exp::SweepGridSpec& grid, std::uint64_t index,
                 const exp::SweepRow& row,
                 const cloudwf::cloud::Platform& platform, std::string* why) {
  const exp::GridCell cell = exp::cell_at(grid, index);
  wl::ScenarioConfig cfg;
  cfg.seed = cell.seed;
  const exp::ExperimentRunner runner(platform, cfg,
                                     exp::ParallelConfig::serial());
  const cloudwf::dag::Workflow structure = exp::grid_workflow(cell.workflow);
  const cloudwf::dag::Workflow materialized =
      runner.materialize(structure, cell.scenario);
  const cloudwf::cloud::Platform env = runner.scenario_platform(cell.scenario);
  const sched::Strategy strategy = sched::strategy_by_label(cell.strategy);
  const cloudwf::sim::Schedule schedule =
      strategy.scheduler->run(materialized, env);
  const cloudwf::check::OracleReport audit =
      cloudwf::check::check_schedule(materialized, schedule, env);
  const std::string where = cell.workflow + "/" +
                            std::string(wl::name_of(cell.scenario)) + "/" +
                            std::to_string(cell.seed) + "/" + cell.strategy;
  if (!audit.ok()) {
    *why = "oracle rejects " + where + ": " + audit.to_string();
    return false;
  }
  const sched::Strategy ref = sched::reference_strategy();
  exp::RunResult r;
  r.strategy = cell.strategy;
  r.workflow = structure.name();
  r.scenario = cell.scenario;
  r.metrics = cloudwf::sim::compute_metrics(materialized, schedule, env);
  r.relative = cloudwf::sim::relative_to_reference(
      r.metrics, cloudwf::sim::compute_metrics(
                     materialized, ref.scheduler->run(materialized, env), env));
  if (!(exp::sweep_row(r, cell.seed) == row)) {
    *why = "row of " + where + " differs from the direct evaluation";
    return false;
  }
  return true;
}

/// exp::run_shard + exp::sweep_table, call by call.
std::string replica_shard(const Layers& layers, const exp::ShardSpec& shard,
                          const cloudwf::cloud::Platform& platform,
                          std::vector<exp::SweepRow>* out_rows) {
  Trace& trace = layers.trace;
  std::vector<sched::Strategy> strategies;
  {
    const Trace::Scope s(trace, layers.grid);
    exp::validate_grid(shard.grid);
    for (const std::string& label : shard.grid.strategies)
      strategies.push_back(sched::strategy_by_label(label));
  }
  std::map<std::string, cloudwf::dag::Workflow> structures;
  std::vector<exp::SweepRow> rows;
  std::uint64_t index = shard.cell_begin;
  while (index < shard.cell_end) {
    exp::GridCell first;
    {
      const Trace::Scope s(trace, layers.grid);
      first = exp::cell_at(shard.grid, index);
    }
    const std::uint64_t group_end =
        std::min(shard.cell_end,
                 index - first.strategy_index + shard.grid.strategies.size());
    auto it = structures.find(first.workflow);
    if (it == structures.end()) {
      const Trace::Scope s(trace, layers.generate);
      it = structures.emplace(first.workflow, exp::grid_workflow(first.workflow))
               .first;
    }
    const Prepared p = replica_prepare(layers, platform, it->second,
                                       first.scenario, first.seed);
    for (std::uint64_t i = index; i < group_end; ++i) {
      const exp::RunResult r = replica_cell(
          layers, strategies[first.strategy_index + (i - index)], p,
          it->second.name(), first.scenario);
      const Trace::Scope s(trace, layers.rows);
      rows.push_back(exp::sweep_row(r, first.seed));
    }
    index = group_end;
  }
  const Trace::Scope s(trace, layers.rows);
  std::string table = exp::sweep_table(shard.grid, rows);
  *out_rows = std::move(rows);
  return table;
}

}  // namespace

Report run_sweep(const Options& options) {
  Report report;
  const bool large = options.workload == "large-dag";
  const double seconds = static_cast<double>(options.seconds);

  std::vector<double> setup_s;
  cloudwf::cloud::Platform platform = cloudwf::cloud::Platform::ec2();
  std::optional<Plan> plan;
  for (int s = 0; s < (options.trace ? 1 : kSetups); ++s) {
    const Clock::time_point t0 = Clock::now();
    platform = cloudwf::cloud::Platform::ec2();
    plan.emplace(large, options.seed);
    const exp::SweepGridSpec warm = plan->warmup();
    const std::vector<exp::SweepRow> rows = exp::run_shard(whole(warm), platform);
    if (!shape_ok(warm, rows)) report.wrong("warm-up shard rows are malformed");
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  const std::uint64_t retain_key = splitmix64(options.seed ^ 0x5eedull);
  // The shards kept for the cell checks: every large-dag shard, and at most
  // kPaperRetainedOps seeded sweep-paper shards, so that memory does not
  // grow with the thousands of shards a sweep-paper window runs.
  std::vector<OpResult> results;
  // latency_ms[k] holds operation k of every pass: a pass repeats the same
  // sub-grid shapes with other seeds.
  std::vector<std::vector<double>> latency_ms;
  std::vector<std::uint64_t> op_cells;
  for (const exp::SweepGridSpec& grid : plan->pass(0))
    op_cells.push_back(grid.cell_count());
  std::uint64_t passes = 0;
  std::uint64_t pass0_digest = 14695981039346656037ull;
  if (!options.trace) {
    // Each lane is one thread running passes one shard at a time; a shard's
    // latency is that of one serial exp::run_shard call. Lanes take pass
    // numbers from a shared counter and stop before the first shard that
    // would start after the window closes. Pass 0 always runs whole, for
    // its pinned digest.
    struct Lane {
      std::vector<std::vector<double>> latency_ms;
      std::vector<OpResult> results;
      std::uint64_t attempted = 0;
      std::uint64_t short_shards = 0;  ///< fewer or more rows than cells
      std::exception_ptr error;
    };
    std::vector<Lane> lanes(lane_count());
    std::atomic<std::uint64_t> next_pass{0};
    std::atomic<std::size_t> retained_ops{0};
    const Clock::time_point t0 = Clock::now();
    const auto run_lane = [&](Lane& lane) {
      lane.latency_ms.resize(op_cells.size());
      try {
        for (;;) {
          const std::uint64_t p = next_pass.fetch_add(1);
          const std::vector<exp::SweepGridSpec> ops = plan->pass(p);
          for (std::size_t k = 0; k < ops.size(); ++k) {
            if (p != 0 && ms_between(t0, Clock::now()) >= seconds * 1000.0)
              return;
            const exp::SweepGridSpec& grid = ops[k];
            const Clock::time_point op0 = Clock::now();
            std::vector<exp::SweepRow> rows =
                exp::run_shard(whole(grid), platform);
            const std::string table = exp::sweep_table(grid, rows);
            lane.latency_ms[k].push_back(ms_between(op0, Clock::now()));
            if (p == 0) pass0_digest = fnv1a(table, pass0_digest);
            ++lane.attempted;
            if (rows.size() != grid.cell_count()) {
              ++lane.short_shards;
            } else if (large ||
                       (splitmix64(retain_key + p * ops.size() + k) % 64 == 0 &&
                        retained_ops.fetch_add(1) < kPaperRetainedOps)) {
              lane.results.push_back({p, k, std::move(rows)});
            }
          }
        }
      } catch (...) {
        lane.error = std::current_exception();
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t i = 1; i < lanes.size(); ++i)
      threads.emplace_back(run_lane, std::ref(lanes[i]));
    run_lane(lanes[0]);
    for (std::thread& t : threads) t.join();
    latency_ms.resize(op_cells.size());
    for (Lane& lane : lanes) {
      if (lane.error) std::rethrow_exception(lane.error);
      report.attempted += lane.attempted;
      for (std::uint64_t i = 0; i < lane.short_shards; ++i)
        report.fail("exp::run_shard returned a row count unlike the grid's");
      for (std::size_t k = 0; k < op_cells.size(); ++k)
        latency_ms[k].insert(latency_ms[k].end(), lane.latency_ms[k].begin(),
                             lane.latency_ms[k].end());
      std::move(lane.results.begin(), lane.results.end(),
                std::back_inserter(results));
    }
    // The order of the checks' sample does not depend on which lane ran what.
    std::sort(results.begin(), results.end(),
              [](const OpResult& a, const OpResult& b) {
                return std::tie(a.pass, a.shape) < std::tie(b.pass, b.shape);
              });
  }

  Trace trace;
  double prod_ms = 0;
  double replica_ms = 0;
  if (options.trace) {
    const Layers layers(trace);
    const Trace::Id prod_span = trace.name("prod:exp.run_shard");
    const Trace::Id replica_span = trace.name("replica:exp.run_shard");
    const Clock::time_point t0 = Clock::now();
    do {
      std::uint64_t op_index = 0;
      for (const exp::SweepGridSpec& grid : plan->pass(passes)) {
        const exp::ShardSpec shard = whole(grid);
        std::string prod_table;
        std::string replica_table;
        std::vector<exp::SweepRow> prod_rows;
        std::vector<exp::SweepRow> replica_rows;
        const auto run_prod = [&] {
          const Trace::Scope s(trace, prod_span);
          prod_rows = exp::run_shard(shard, platform);
          prod_table = exp::sweep_table(grid, prod_rows);
        };
        const auto run_replica = [&] {
          const Trace::Scope s(trace, replica_span);
          replica_table = replica_shard(layers, shard, platform, &replica_rows);
        };
        // Alternate which runs first, so warm caches favour neither.
        if (op_index++ % 2 == 0) {
          run_prod();
          run_replica();
        } else {
          run_replica();
          run_prod();
        }
        ++report.attempted;
        if (passes == 0) pass0_digest = fnv1a(prod_table, pass0_digest);
        if (prod_rows != replica_rows || prod_table != replica_table)
          report.wrong("replica rows differ from exp::run_shard");
        if (!shape_ok(grid, prod_rows)) report.fail("malformed shard rows");
      }
      ++passes;
    } while (ms_between(t0, Clock::now()) < kReplayMs);
    prod_ms = trace.total_ms("prod:exp.run_shard");
    replica_ms = trace.total_ms("replica:exp.run_shard");
  }

  // Checks, outside the measured window.
  if (pass0_digest != plan->pinned_digest()) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(pass0_digest));
    report.wrong(std::string("pass-0 sweep table digest 0x") + hex +
                 " differs from the pinned one");
  }
  std::vector<std::pair<std::size_t, std::uint64_t>> retained_cells;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const OpResult& op = results[i];
    if (!shape_ok(plan->pass(op.pass)[op.shape], op.rows)) {
      report.fail("malformed rows from exp::run_shard");
      continue;
    }
    for (std::uint64_t c = 0; c < op.rows.size(); ++c)
      retained_cells.emplace_back(i, c);
  }
  const std::size_t want = large ? kLargeSampleCells : kPaperSampleCells;
  for (std::size_t k = 0; k < want && !retained_cells.empty(); ++k) {
    const auto [i, cell] =
        retained_cells[splitmix64(retain_key ^ (k + 1)) % retained_cells.size()];
    const OpResult& op = results[i];
    std::string why;
    if (!cell_checks(plan->pass(op.pass)[op.shape], cell, op.rows[cell],
                     platform, &why))
      report.fail(why);
  }

  if (!options.trace) {
    // Each shard shape's latency is the fastest 5 % (p5) of its latencies
    // over the passes of every lane, and the pass-level figures are built
    // from those. The reference host runs whole stretches of a run fast or
    // slow (README.md), so the median over the passes reads the share of
    // slow stretches; p5 reads the program on the fast ones, and was the
    // highest percentile that repeated there. A change that slows fewer
    // than about 19 in 20 passes of a shape does not move it.
    std::vector<double> shape_ms;
    double pass_ms = 0;
    std::uint64_t pass_cells = 0;
    for (std::size_t k = 0; k < latency_ms.size(); ++k) {
      shape_ms.push_back(percentile(latency_ms[k], kShapePercentile));
      pass_ms += shape_ms.back();
      pass_cells += op_cells[k];
    }
    report.add("throughput_rps",
               static_cast<double>(shape_ms.size()) / pass_ms * 1000.0, "req/s");
    report.add("cells_per_s", static_cast<double>(pass_cells) / pass_ms * 1000.0,
               "cells/s");
    report.add("latency_p50_ms", percentile(shape_ms, 50.0), "ms");
    report.add("latency_tail_ms", percentile(shape_ms, 100.0), "ms");
    report.add("setup_s", percentile(setup_s, 50.0), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  PerLayer p;
  p.layers = trace.self_times();
  p.traced_ms = replica_ms;
  p.replica_ms = replica_ms;
  p.prod_ms = prod_ms;
  add_per_layer(report, p);
  if (!options.trace_file.empty() && !trace.write_jsonl(options.trace_file))
    report.wrong("cannot write the trace to " + options.trace_file);
  return report;
}

}  // namespace perfbench
