// The service's JSON request/response schema (documented in
// docs/SERVICE.md).
//
// Two compute endpoints plus two introspection endpoints:
//
//   POST /v1/evaluate  {"workflow":"montage","strategy":"AllParExceed-m",
//                       "scenario":"pareto","seed":7}            one seed, or
//                      {... ,"seeds":[0,29]}                     an inclusive
//                      seed range — evaluates one strategy per seed.
//   POST /v1/rank      {"workflow":"montage","scenario":"pareto","seed":7}
//                      — all 19 paper strategies in legend order.
//   GET  /health       liveness + capacity snapshot.
//   GET  /stats        service counters, batching stats, obs counters and
//                      phase timings.
//
// Decoding is strict: unknown workflows/strategies/scenarios, missing
// fields, type mismatches and malformed JSON all raise BadRequest, which
// the server maps to 400 with the offending detail (and byte offset for
// JSON syntax errors — see util::JsonParseError).
//
// JSON is the default wire format, not the only one: the same request
// structs (EvaluateRequest/RankRequest) also travel as compact binary
// frames when a request negotiates `Content-Type:
// application/x-cloudwf-bin` — see svc/binproto.hpp. The semantic checks
// below (known workflow, strategy label, seed-range cap) run identically
// for both formats at the server boundary.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/sweep_grid.hpp"
#include "util/json.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::svc {

/// Client-side error: the request cannot be served as written. The server
/// answers 400 with this message as the "error" field.
class BadRequest : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Decoded /v1/evaluate payload.
struct EvaluateRequest {
  std::string workflow;   ///< named workflow (montage, cstem, ...)
  std::string strategy;   ///< paper legend label
  workload::ScenarioKind scenario = workload::ScenarioKind::pareto;
  std::uint64_t seed_begin = 0;  ///< first seed (inclusive)
  std::uint64_t seed_end = 0;    ///< last seed (inclusive)

  [[nodiscard]] std::size_t seed_count() const noexcept {
    return static_cast<std::size_t>(seed_end - seed_begin) + 1;
  }
};

/// Decoded /v1/rank payload.
struct RankRequest {
  std::string workflow;
  workload::ScenarioKind scenario = workload::ScenarioKind::pareto;
  std::uint64_t seed = 0;
};

/// Throws BadRequest if `name` is not one of exp::named_workflows() (no
/// file paths or scaled "family:N": network input must not reach the
/// filesystem loader).
void validate_workflow_name(const std::string& name);

/// Parses a scenario name; throws BadRequest for unknown names.
[[nodiscard]] workload::ScenarioKind parse_scenario(const std::string& name);

/// Decodes an /v1/evaluate body. Throws BadRequest on any schema violation
/// (the caller catches util::JsonParseError separately for syntax errors).
[[nodiscard]] EvaluateRequest decode_evaluate(const util::Json& body);

/// Decodes a /v1/rank body.
[[nodiscard]] RankRequest decode_rank(const util::Json& body);

/// Decodes a shard spec (the distributed fabric's unit of work, the body
/// of a 200 answer to POST /v1/shard/lease):
///   {"shard_id":N,"cell_begin":B,"cell_end":E,
///    "grid":{"workflows":[...],"scenarios":[...],"strategies":[...],
///            "seed_begin":S,"seed_end":T}}
/// Schema checks only; grid semantics (known workflows/strategies, cell
/// caps) are validate_shard's.
[[nodiscard]] exp::ShardSpec decode_shard(const util::Json& body);

/// The canonical JSON encoding of a shard spec — what the coordinator's
/// lease route hands a worker.
[[nodiscard]] std::string shard_request_body(const exp::ShardSpec& shard);

/// Semantic checks a worker runs on a leased shard: the grid must
/// validate, the cell range must lie inside it, and one shard may not carry
/// more than kMaxCellsPerShard cells. Throws BadRequest.
void validate_shard(const exp::ShardSpec& shard);

/// A shard's answer in JSON form (the binary form is BinShardResponse).
struct ShardResult {
  std::uint64_t shard_id = 0;
  std::vector<exp::SweepRow> rows;
};

/// Decodes the JSON body of POST /v1/shard/result:
///   {"shard_id":N,"rows":[{"seed":S,"strategy":"...","makespan_us":M,...}]}
/// with one row per exp::SweepRow field. Every row field is a required
/// integer (micros / ppm) — results must merge bit-identically across the
/// wire, so no float ever travels; anything else throws BadRequest.
[[nodiscard]] ShardResult decode_shard_result(const util::Json& body);

/// {"error": message} — the uniform error body.
[[nodiscard]] std::string error_body(const std::string& message);

/// Caps on what one request may ask for (admission control at the schema
/// level: a single request cannot smuggle in an unbounded sweep).
inline constexpr std::size_t kMaxSeedsPerRequest = 256;

/// Cap on one shard's cell count — a shard is a batch job, but its rows
/// still travel back in one HTTP request.
inline constexpr std::uint64_t kMaxCellsPerShard = 65536;

}  // namespace cloudwf::svc
