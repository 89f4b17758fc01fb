#include "svc/protocol.hpp"

#include <cmath>

namespace cloudwf::svc {

namespace {

/// Fetches a required string field or throws BadRequest naming it.
const std::string& required_string(const util::Json& body, const char* key) {
  const util::Json* field = body.find(key);
  if (!field) throw BadRequest(std::string("missing required field '") + key + "'");
  if (!field->is_string())
    throw BadRequest(std::string("field '") + key + "' must be a string");
  return field->as_string();
}

std::uint64_t as_seed(const util::Json& value, const char* what) {
  if (!value.is_number())
    throw BadRequest(std::string(what) + " must be a non-negative integer");
  const double d = value.as_number();
  if (d < 0 || d != std::floor(d) || d > 9.0e15)
    throw BadRequest(std::string(what) + " must be a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

void decode_seed_fields(const util::Json& body, std::uint64_t& begin,
                        std::uint64_t& end) {
  const util::Json* seed = body.find("seed");
  const util::Json* seeds = body.find("seeds");
  if (seed && seeds)
    throw BadRequest("give either 'seed' or 'seeds', not both");
  if (seed) {
    begin = end = as_seed(*seed, "'seed'");
    return;
  }
  if (!seeds) throw BadRequest("missing required field 'seed' (or 'seeds')");
  if (!seeds->is_array() || seeds->as_array().size() != 2)
    throw BadRequest("'seeds' must be a two-element [first, last] array");
  begin = as_seed(seeds->as_array()[0], "'seeds[0]'");
  end = as_seed(seeds->as_array()[1], "'seeds[1]'");
  if (end < begin) throw BadRequest("'seeds' range is inverted");
  if (end - begin + 1 > kMaxSeedsPerRequest)
    throw BadRequest("'seeds' range exceeds " +
                     std::to_string(kMaxSeedsPerRequest) +
                     " seeds per request");
}

}  // namespace

void validate_workflow_name(const std::string& name) {
  if (exp::find_named_workflow(name)) return;
  std::string known;
  for (const exp::NamedWorkflow& w : exp::named_workflows())
    known += (known.empty() ? "" : "|") + std::string(w.name);
  throw BadRequest("unknown workflow '" + name + "' (" + known + ")");
}

workload::ScenarioKind parse_scenario(const std::string& name) {
  for (workload::ScenarioKind kind : workload::kAllScenarioKinds) {
    if (name == workload::name_of(kind)) return kind;
  }
  throw BadRequest("unknown scenario '" + name +
                   "' (pareto|best-case|worst-case|data-intensive|"
                   "cold-start|variable-price|deadline-budget)");
}

EvaluateRequest decode_evaluate(const util::Json& body) {
  if (!body.is_object()) throw BadRequest("request body must be a JSON object");
  EvaluateRequest req;
  req.workflow = required_string(body, "workflow");
  validate_workflow_name(req.workflow);
  req.strategy = required_string(body, "strategy");
  if (const util::Json* scenario = body.find("scenario")) {
    if (!scenario->is_string())
      throw BadRequest("field 'scenario' must be a string");
    req.scenario = parse_scenario(scenario->as_string());
  }
  decode_seed_fields(body, req.seed_begin, req.seed_end);
  return req;
}

RankRequest decode_rank(const util::Json& body) {
  if (!body.is_object()) throw BadRequest("request body must be a JSON object");
  RankRequest req;
  req.workflow = required_string(body, "workflow");
  validate_workflow_name(req.workflow);
  if (const util::Json* scenario = body.find("scenario")) {
    if (!scenario->is_string())
      throw BadRequest("field 'scenario' must be a string");
    req.scenario = parse_scenario(scenario->as_string());
  }
  if (const util::Json* seed = body.find("seed"))
    req.seed = as_seed(*seed, "'seed'");
  return req;
}

exp::ShardSpec decode_shard(const util::Json& body) {
  if (!body.is_object()) throw BadRequest("request body must be a JSON object");
  exp::ShardSpec shard;

  const auto required_u64 = [](const util::Json& obj, const char* key) {
    const util::Json* field = obj.find(key);
    if (!field)
      throw BadRequest(std::string("missing required field '") + key + "'");
    return as_seed(*field, (std::string("'") + key + "'").c_str());
  };

  shard.shard_id = required_u64(body, "shard_id");
  shard.cell_begin = required_u64(body, "cell_begin");
  shard.cell_end = required_u64(body, "cell_end");

  const util::Json* grid = body.find("grid");
  if (!grid) throw BadRequest("missing required field 'grid'");
  if (!grid->is_object()) throw BadRequest("field 'grid' must be an object");

  const auto string_array = [&](const char* key) {
    const util::Json* field = grid->find(key);
    if (!field)
      throw BadRequest(std::string("missing required grid field '") + key +
                       "'");
    if (!field->is_array())
      throw BadRequest(std::string("grid field '") + key +
                       "' must be an array");
    std::vector<std::string> out;
    out.reserve(field->as_array().size());
    for (const util::Json& item : field->as_array()) {
      if (!item.is_string())
        throw BadRequest(std::string("grid field '") + key +
                         "' must hold strings");
      out.push_back(item.as_string());
    }
    return out;
  };

  shard.grid.workflows = string_array("workflows");
  for (const std::string& name : string_array("scenarios"))
    shard.grid.scenarios.push_back(parse_scenario(name));
  shard.grid.strategies = string_array("strategies");
  shard.grid.seed_begin = required_u64(*grid, "seed_begin");
  shard.grid.seed_end = required_u64(*grid, "seed_end");
  return shard;
}

std::string shard_request_body(const exp::ShardSpec& shard) {
  util::Json grid = util::Json::object();
  util::Json workflows = util::Json::array();
  for (const std::string& name : shard.grid.workflows) workflows.push_back(name);
  grid["workflows"] = std::move(workflows);
  util::Json scenarios = util::Json::array();
  for (const auto kind : shard.grid.scenarios)
    scenarios.push_back(std::string(workload::name_of(kind)));
  grid["scenarios"] = std::move(scenarios);
  util::Json strategies = util::Json::array();
  for (const std::string& label : shard.grid.strategies)
    strategies.push_back(label);
  grid["strategies"] = std::move(strategies);
  grid["seed_begin"] = static_cast<std::int64_t>(shard.grid.seed_begin);
  grid["seed_end"] = static_cast<std::int64_t>(shard.grid.seed_end);

  util::Json body = util::Json::object();
  body["shard_id"] = static_cast<std::int64_t>(shard.shard_id);
  body["cell_begin"] = static_cast<std::int64_t>(shard.cell_begin);
  body["cell_end"] = static_cast<std::int64_t>(shard.cell_end);
  body["grid"] = std::move(grid);
  return body.dump();
}

ShardResult decode_shard_result(const util::Json& body) {
  if (!body.is_object()) throw BadRequest("shard result must be a JSON object");
  ShardResult result;
  const util::Json* id = body.find("shard_id");
  if (!id) throw BadRequest("missing required field 'shard_id'");
  result.shard_id = as_seed(*id, "'shard_id'");

  const util::Json* rows = body.find("rows");
  if (!rows) throw BadRequest("missing required field 'rows'");
  if (!rows->is_array()) throw BadRequest("field 'rows' must be an array");

  // Integer field (possibly negative — gain/loss ppm); exact in a JSON
  // double up to 2^53, far above any metric the simulator emits.
  const auto as_i64 = [](const util::Json& row, const char* key) {
    const util::Json* field = row.find(key);
    if (!field)
      throw BadRequest(std::string("row missing required field '") + key + "'");
    if (!field->is_number())
      throw BadRequest(std::string("row field '") + key +
                       "' must be an integer");
    const double d = field->as_number();
    if (d != std::floor(d) || d > 9.0e15 || d < -9.0e15)
      throw BadRequest(std::string("row field '") + key +
                       "' must be an integer");
    return static_cast<std::int64_t>(d);
  };

  result.rows.reserve(rows->as_array().size());
  for (const util::Json& item : rows->as_array()) {
    if (!item.is_object()) throw BadRequest("shard rows must be objects");
    exp::SweepRow row;
    const util::Json* seed = item.find("seed");
    if (!seed) throw BadRequest("row missing required field 'seed'");
    row.seed = as_seed(*seed, "row 'seed'");
    const util::Json* strategy = item.find("strategy");
    if (!strategy || !strategy->is_string())
      throw BadRequest("row missing required string field 'strategy'");
    row.strategy = strategy->as_string();
    row.makespan_us = as_i64(item, "makespan_us");
    row.vm_cost_micros = as_i64(item, "vm_cost_micros");
    row.egress_cost_micros = as_i64(item, "egress_cost_micros");
    row.total_cost_micros = as_i64(item, "total_cost_micros");
    row.idle_us = as_i64(item, "idle_us");
    row.busy_us = as_i64(item, "busy_us");
    row.vms_used = static_cast<std::uint32_t>(as_i64(item, "vms_used"));
    row.total_btus = as_i64(item, "total_btus");
    row.utilization_ppm = as_i64(item, "utilization_ppm");
    row.gain_pct_ppm = as_i64(item, "gain_pct_ppm");
    row.loss_pct_ppm = as_i64(item, "loss_pct_ppm");
    result.rows.push_back(std::move(row));
  }
  return result;
}

void validate_shard(const exp::ShardSpec& shard) {
  try {
    exp::validate_grid(shard.grid);
  } catch (const std::invalid_argument& e) {
    throw BadRequest(e.what());
  }
  if (shard.cell_end < shard.cell_begin)
    throw BadRequest("shard cell range is inverted");
  if (shard.cell_end > shard.grid.cell_count())
    throw BadRequest("shard cell range exceeds the grid (" +
                     std::to_string(shard.grid.cell_count()) + " cells)");
  if (shard.cell_count() > kMaxCellsPerShard)
    throw BadRequest("shard exceeds " + std::to_string(kMaxCellsPerShard) +
                     " cells per request");
}

std::string error_body(const std::string& message) {
  util::Json body = util::Json::object();
  body["error"] = message;
  return body.dump();
}

}  // namespace cloudwf::svc
