// Evaluation handlers: the bridge from decoded service requests to the
// experiment layer. Everything here is deterministic — a handler's body is
// a pure function of (request, platform) — so the server's batched/cached
// path and a direct serial call produce byte-identical JSON. The
// tests/svc equivalence suite certifies exactly that.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "exp/experiment.hpp"
#include "svc/protocol.hpp"

namespace cloudwf::svc {

/// Resolves a served workflow name to its structure. Throws BadRequest for
/// unknown names (the protocol layer rejects them earlier; this is the
/// defense-in-depth copy).
[[nodiscard]] dag::Workflow workflow_by_name(const std::string& name);

/// Throws BadRequest when `label` names neither a paper strategy nor a
/// baseline — checked before a request is admitted to the queue, so bad
/// labels cost a 400, not a queue slot.
void validate_strategy_label(const std::string& label);

/// Per-batch memo: distinct (workflow, scenario, seed, strategy) cells are
/// evaluated once per batch even when several coalesced requests ask for
/// overlapping seed ranges. Single-threaded by construction (one worker
/// owns one batch).
struct EvalCache {
  std::map<std::string, exp::RunResult> run;            ///< one strategy cell
  std::map<std::string, std::vector<exp::RunResult>> rank;  ///< 19-row cell
};

/// One RunResult as the service reports it. Costs are integer micro-dollars
/// (exact — no float formatting drift between server and client).
[[nodiscard]] util::Json run_result_json(const exp::RunResult& result,
                                         std::uint64_t seed);

/// One evaluated cell with the seed it answers for. Both wire encoders
/// (JSON evaluate_body/rank_body and the binary bodies in binproto.cpp)
/// derive their responses from these rows, so the two protocols always
/// report identical data for the same request.
struct ResultRow {
  std::uint64_t seed = 0;
  exp::RunResult result;
};

/// Rows of a /v1/evaluate answer: the strategy evaluated on every seed of
/// the request's range, in seed order.
[[nodiscard]] std::vector<ResultRow> evaluate_rows(
    const EvaluateRequest& request, const cloud::Platform& platform,
    EvalCache* cache = nullptr);

/// Rows of a /v1/rank answer: all 19 paper strategies in legend order.
[[nodiscard]] std::vector<ResultRow> rank_rows(const RankRequest& request,
                                               const cloud::Platform& platform,
                                               EvalCache* cache = nullptr);

/// Body of a /v1/evaluate response: the strategy evaluated on every seed of
/// the request's range, in seed order.
[[nodiscard]] std::string evaluate_body(const EvaluateRequest& request,
                                        const cloud::Platform& platform,
                                        EvalCache* cache = nullptr);

/// Body of a /v1/rank response: all 19 paper strategies in legend order.
[[nodiscard]] std::string rank_body(const RankRequest& request,
                                    const cloud::Platform& platform,
                                    EvalCache* cache = nullptr);

}  // namespace cloudwf::svc
