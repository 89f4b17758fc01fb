// Compact binary protocol — the service's second wire format, negotiated
// per request via `Content-Type: application/x-cloudwf-bin` on the same
// port as JSON (docs/SERVICE.md documents the frame layout).
//
// One frame per request/response body:
//
//   [u32 payload_len][u8 version = 1][u8 kind][payload]
//
// All integers are little-endian. Strings are [u16 len][bytes]. Every
// numeric result field is integer fixed-point: costs are exact
// micro-dollars (the same util::Money.micros() the JSON encoder emits),
// durations are microseconds and ratios/percentages are millionths
// (llround(value * 1e6)) — so a decoded frame re-encodes to the identical
// bytes (the fuzz target's fixed point) and clients never parse floats.
//
// decode_frame() is strict: the length prefix must match the buffer
// exactly, unknown versions/kinds/scenarios and truncated fields throw
// BinProtoError carrying the byte offset of the violation. Semantic checks
// (known workflow, seed-range caps) stay at the server boundary, shared
// with the JSON path.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/sweep_grid.hpp"
#include "svc/handlers.hpp"
#include "svc/protocol.hpp"

namespace cloudwf::svc {

inline constexpr std::uint8_t kBinaryVersion = 1;
inline constexpr const char* kBinaryContentType = "application/x-cloudwf-bin";

enum class FrameKind : std::uint8_t {
  evaluate_request = 1,
  rank_request = 2,
  evaluate_response = 3,
  rank_response = 4,
  error = 5,
  shard_request = 6,   ///< payload: exp::ShardSpec (distributed fabric)
  shard_response = 7,  ///< payload: BinShardResponse
};

/// One result row in integer fixed point (see the header comment for the
/// exact scaling of each field against its JSON counterpart). It is the
/// sweep grid's row, so shard rows go on the wire without a conversion.
using BinResultRow = exp::SweepRow;

struct BinEvaluateResponse {
  std::string workflow;
  workload::ScenarioKind scenario = workload::ScenarioKind::pareto;
  std::string strategy;
  std::vector<BinResultRow> rows;
};

struct BinRankResponse {
  std::string workflow;
  workload::ScenarioKind scenario = workload::ScenarioKind::pareto;
  std::uint64_t seed = 0;
  std::vector<BinResultRow> rows;
};

struct BinError {
  std::uint16_t status = 400;
  std::string message;
};

/// A shard's answer: its rows in canonical cell order. The rows are the
/// same integer fixed point as every other response, so a coordinator
/// merging frames from many workers reassembles the serial sweep exactly.
struct BinShardResponse {
  std::uint64_t shard_id = 0;
  std::vector<BinResultRow> rows;

  friend bool operator==(const BinShardResponse&,
                         const BinShardResponse&) = default;
};

/// Any decoded frame. Requests reuse the protocol-layer structs (shard
/// requests are exp::ShardSpec verbatim), so the server feeds them straight
/// into the same handlers as JSON.
using BinFrame =
    std::variant<EvaluateRequest, RankRequest, BinEvaluateResponse,
                 BinRankResponse, BinError, exp::ShardSpec, BinShardResponse>;

/// Wire-level violation: `offset` is the byte position (into the buffer
/// handed to decode_frame) where the violation was detected — always
/// <= buffer size, which the fuzz target asserts.
class BinProtoError : public std::runtime_error {
 public:
  BinProtoError(std::size_t at, const std::string& message)
      : std::runtime_error(message + " (at byte " + std::to_string(at) + ")"),
        offset(at) {}
  std::size_t offset;
};

[[nodiscard]] std::string encode_frame(const BinFrame& frame);
[[nodiscard]] BinFrame decode_frame(std::string_view bytes);

/// Converts one evaluated cell into its fixed-point row.
[[nodiscard]] BinResultRow bin_row(const exp::RunResult& result,
                                   std::uint64_t seed);

/// An {status, message} error as one encoded frame — the binary analogue of
/// protocol.hpp's error_body().
[[nodiscard]] std::string bin_error_frame(int status,
                                          const std::string& message);

/// Response bodies for the two compute endpoints, built from the same
/// handler rows as the JSON bodies (handlers.hpp evaluate_rows/rank_rows),
/// so the two protocols answer from identical data.
[[nodiscard]] std::string evaluate_body_bin(const EvaluateRequest& request,
                                            const cloud::Platform& platform,
                                            EvalCache* cache = nullptr);
[[nodiscard]] std::string rank_body_bin(const RankRequest& request,
                                        const cloud::Platform& platform,
                                        EvalCache* cache = nullptr);

}  // namespace cloudwf::svc
