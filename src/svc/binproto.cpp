#include "svc/binproto.hpp"

#include <limits>

namespace cloudwf::svc {

namespace {

// --- encoding ---------------------------------------------------------
// All integers little-endian, written byte-by-byte (endian-independent).

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v & 0xff));
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    put_u8(out, static_cast<std::uint8_t>((v >> shift) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    put_u8(out, static_cast<std::uint8_t>((v >> shift) & 0xff));
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_string(std::string& out, const std::string& s) {
  if (s.size() > std::numeric_limits<std::uint16_t>::max())
    throw std::invalid_argument("binproto: string exceeds u16 length");
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out += s;
}

void put_row(std::string& out, const BinResultRow& row) {
  put_u64(out, row.seed);
  put_string(out, row.strategy);
  put_i64(out, row.makespan_us);
  put_i64(out, row.vm_cost_micros);
  put_i64(out, row.egress_cost_micros);
  put_i64(out, row.total_cost_micros);
  put_i64(out, row.idle_us);
  put_i64(out, row.busy_us);
  put_u32(out, row.vms_used);
  put_i64(out, row.total_btus);
  put_i64(out, row.utilization_ppm);
  put_i64(out, row.gain_pct_ppm);
  put_i64(out, row.loss_pct_ppm);
}

void put_rows(std::string& out, const std::vector<BinResultRow>& rows) {
  if (rows.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("binproto: too many rows");
  put_u32(out, static_cast<std::uint32_t>(rows.size()));
  for (const BinResultRow& row : rows) put_row(out, row);
}

// --- decoding ---------------------------------------------------------

/// Strict cursor over the frame payload. Every primitive read throws
/// BinProtoError at the current offset when the remaining bytes are short.
struct Reader {
  std::string_view bytes;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& message) const {
    throw BinProtoError(pos, message);
  }

  void need(std::size_t n, const char* what) {
    if (bytes.size() - pos < n)
      fail(std::string("truncated ") + what);
  }

  std::uint8_t u8(const char* what) {
    need(1, what);
    return static_cast<std::uint8_t>(bytes[pos++]);
  }

  std::uint16_t u16(const char* what) {
    need(2, what);
    std::uint16_t v = 0;
    for (int shift = 0; shift < 16; shift += 8)
      v = static_cast<std::uint16_t>(
          v | static_cast<std::uint16_t>(
                  static_cast<std::uint8_t>(bytes[pos++]))
                  << shift);
    return v;
  }

  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8)
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[pos++]))
           << shift;
    return v;
  }

  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[pos++]))
           << shift;
    return v;
  }

  std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
  }

  std::string str(const char* what) {
    const std::uint16_t len = u16(what);
    need(len, what);
    std::string out(bytes.substr(pos, len));
    pos += len;
    return out;
  }

  workload::ScenarioKind scenario() {
    const std::size_t at = pos;
    const std::uint8_t v = u8("scenario");
    if (v > static_cast<std::uint8_t>(workload::ScenarioKind::constrained))
      throw BinProtoError(at, "unknown scenario code " + std::to_string(v));
    return static_cast<workload::ScenarioKind>(v);
  }

  BinResultRow row() {
    BinResultRow r;
    r.seed = u64("row seed");
    r.strategy = str("row strategy");
    r.makespan_us = i64("row makespan");
    r.vm_cost_micros = i64("row vm_cost");
    r.egress_cost_micros = i64("row egress_cost");
    r.total_cost_micros = i64("row total_cost");
    r.idle_us = i64("row idle");
    r.busy_us = i64("row busy");
    r.vms_used = u32("row vms_used");
    r.total_btus = i64("row total_btus");
    r.utilization_ppm = i64("row utilization");
    r.gain_pct_ppm = i64("row gain_pct");
    r.loss_pct_ppm = i64("row loss_pct");
    return r;
  }

  std::vector<BinResultRow> rows() {
    const std::size_t at = pos;
    const std::uint32_t count = u32("row count");
    // Each row is at least 94 bytes on the wire; a count that could not
    // possibly fit the remaining payload is rejected before allocating.
    if (count > (bytes.size() - pos) / 94)
      throw BinProtoError(at, "row count exceeds payload");
    std::vector<BinResultRow> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) out.push_back(row());
    return out;
  }
};

}  // namespace

std::string encode_frame(const BinFrame& frame) {
  std::string payload;
  FrameKind kind = FrameKind::error;

  if (const auto* eval_req = std::get_if<EvaluateRequest>(&frame)) {
    kind = FrameKind::evaluate_request;
    put_string(payload, eval_req->workflow);
    put_string(payload, eval_req->strategy);
    put_u8(payload, static_cast<std::uint8_t>(eval_req->scenario));
    put_u64(payload, eval_req->seed_begin);
    put_u64(payload, eval_req->seed_end);
  } else if (const auto* rank_req = std::get_if<RankRequest>(&frame)) {
    kind = FrameKind::rank_request;
    put_string(payload, rank_req->workflow);
    put_u8(payload, static_cast<std::uint8_t>(rank_req->scenario));
    put_u64(payload, rank_req->seed);
  } else if (const auto* eval_resp = std::get_if<BinEvaluateResponse>(&frame)) {
    kind = FrameKind::evaluate_response;
    put_string(payload, eval_resp->workflow);
    put_u8(payload, static_cast<std::uint8_t>(eval_resp->scenario));
    put_string(payload, eval_resp->strategy);
    put_rows(payload, eval_resp->rows);
  } else if (const auto* rank_resp = std::get_if<BinRankResponse>(&frame)) {
    kind = FrameKind::rank_response;
    put_string(payload, rank_resp->workflow);
    put_u8(payload, static_cast<std::uint8_t>(rank_resp->scenario));
    put_u64(payload, rank_resp->seed);
    put_rows(payload, rank_resp->rows);
  } else if (const auto* shard = std::get_if<exp::ShardSpec>(&frame)) {
    kind = FrameKind::shard_request;
    put_u64(payload, shard->shard_id);
    put_u64(payload, shard->cell_begin);
    put_u64(payload, shard->cell_end);
    const auto put_names = [&](const std::vector<std::string>& names) {
      if (names.size() > std::numeric_limits<std::uint16_t>::max())
        throw std::invalid_argument("binproto: too many grid names");
      put_u16(payload, static_cast<std::uint16_t>(names.size()));
      for (const std::string& name : names) put_string(payload, name);
    };
    put_names(shard->grid.workflows);
    if (shard->grid.scenarios.size() >
        std::numeric_limits<std::uint16_t>::max())
      throw std::invalid_argument("binproto: too many grid scenarios");
    put_u16(payload, static_cast<std::uint16_t>(shard->grid.scenarios.size()));
    for (const auto scenario : shard->grid.scenarios)
      put_u8(payload, static_cast<std::uint8_t>(scenario));
    put_names(shard->grid.strategies);
    put_u64(payload, shard->grid.seed_begin);
    put_u64(payload, shard->grid.seed_end);
  } else if (const auto* shard_resp = std::get_if<BinShardResponse>(&frame)) {
    kind = FrameKind::shard_response;
    put_u64(payload, shard_resp->shard_id);
    put_rows(payload, shard_resp->rows);
  } else {
    const auto& err = std::get<BinError>(frame);
    kind = FrameKind::error;
    put_u16(payload, err.status);
    put_string(payload, err.message);
  }

  std::string out;
  out.reserve(payload.size() + 6);
  put_u32(out, static_cast<std::uint32_t>(payload.size() + 2));
  put_u8(out, kBinaryVersion);
  put_u8(out, static_cast<std::uint8_t>(kind));
  out += payload;
  return out;
}

BinFrame decode_frame(std::string_view bytes) {
  Reader r{bytes};
  const std::size_t declared = r.u32("length prefix");
  if (declared != bytes.size() - 4)
    throw BinProtoError(0, "length prefix " + std::to_string(declared) +
                               " does not match payload size " +
                               std::to_string(bytes.size() - 4));
  const std::size_t version_at = r.pos;
  const std::uint8_t version = r.u8("version");
  if (version != kBinaryVersion)
    throw BinProtoError(version_at,
                        "unsupported version " + std::to_string(version));
  const std::size_t kind_at = r.pos;
  const std::uint8_t kind = r.u8("frame kind");

  BinFrame frame;
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::evaluate_request: {
      EvaluateRequest req;
      req.workflow = r.str("workflow");
      req.strategy = r.str("strategy");
      req.scenario = r.scenario();
      req.seed_begin = r.u64("seed_begin");
      req.seed_end = r.u64("seed_end");
      frame = std::move(req);
      break;
    }
    case FrameKind::rank_request: {
      RankRequest req;
      req.workflow = r.str("workflow");
      req.scenario = r.scenario();
      req.seed = r.u64("seed");
      frame = std::move(req);
      break;
    }
    case FrameKind::evaluate_response: {
      BinEvaluateResponse resp;
      resp.workflow = r.str("workflow");
      resp.scenario = r.scenario();
      resp.strategy = r.str("strategy");
      resp.rows = r.rows();
      frame = std::move(resp);
      break;
    }
    case FrameKind::rank_response: {
      BinRankResponse resp;
      resp.workflow = r.str("workflow");
      resp.scenario = r.scenario();
      resp.seed = r.u64("seed");
      resp.rows = r.rows();
      frame = std::move(resp);
      break;
    }
    case FrameKind::shard_request: {
      exp::ShardSpec shard;
      shard.shard_id = r.u64("shard_id");
      shard.cell_begin = r.u64("cell_begin");
      shard.cell_end = r.u64("cell_end");
      const auto read_names = [&](const char* what) {
        const std::size_t at = r.pos;
        const std::uint16_t count = r.u16(what);
        // Each name is at least 2 bytes (its length prefix); reject counts
        // the remaining payload cannot possibly hold.
        if (count > (bytes.size() - r.pos) / 2)
          throw BinProtoError(at, std::string(what) + " count exceeds payload");
        std::vector<std::string> names;
        names.reserve(count);
        for (std::uint16_t i = 0; i < count; ++i) names.push_back(r.str(what));
        return names;
      };
      shard.grid.workflows = read_names("grid workflow");
      const std::size_t scen_at = r.pos;
      const std::uint16_t scen_count = r.u16("grid scenario count");
      if (scen_count > bytes.size() - r.pos)
        throw BinProtoError(scen_at, "scenario count exceeds payload");
      shard.grid.scenarios.reserve(scen_count);
      for (std::uint16_t i = 0; i < scen_count; ++i)
        shard.grid.scenarios.push_back(r.scenario());
      shard.grid.strategies = read_names("grid strategy");
      shard.grid.seed_begin = r.u64("grid seed_begin");
      shard.grid.seed_end = r.u64("grid seed_end");
      frame = std::move(shard);
      break;
    }
    case FrameKind::shard_response: {
      BinShardResponse resp;
      resp.shard_id = r.u64("shard_id");
      resp.rows = r.rows();
      frame = std::move(resp);
      break;
    }
    case FrameKind::error: {
      BinError err;
      err.status = r.u16("status");
      err.message = r.str("message");
      frame = std::move(err);
      break;
    }
    default:
      throw BinProtoError(kind_at,
                          "unknown frame kind " + std::to_string(kind));
  }
  if (r.pos != bytes.size())
    throw BinProtoError(r.pos, "trailing bytes after frame");
  return frame;
}

BinResultRow bin_row(const exp::RunResult& result, std::uint64_t seed) {
  return exp::sweep_row(result, seed);
}

std::string bin_error_frame(int status, const std::string& message) {
  BinError err;
  err.status = static_cast<std::uint16_t>(status);
  err.message = message;
  return encode_frame(err);
}

std::string evaluate_body_bin(const EvaluateRequest& request,
                              const cloud::Platform& platform,
                              EvalCache* cache) {
  BinEvaluateResponse resp;
  resp.workflow = request.workflow;
  resp.scenario = request.scenario;
  resp.strategy = request.strategy;
  for (const ResultRow& row : evaluate_rows(request, platform, cache))
    resp.rows.push_back(bin_row(row.result, row.seed));
  return encode_frame(std::move(resp));
}

std::string rank_body_bin(const RankRequest& request,
                          const cloud::Platform& platform, EvalCache* cache) {
  BinRankResponse resp;
  resp.workflow = request.workflow;
  resp.scenario = request.scenario;
  resp.seed = request.seed;
  for (const ResultRow& row : rank_rows(request, platform, cache))
    resp.rows.push_back(bin_row(row.result, row.seed));
  return encode_frame(std::move(resp));
}

std::string shard_body_bin(const exp::ShardSpec& shard,
                           const cloud::Platform& platform) {
  BinShardResponse resp;
  resp.shard_id = shard.shard_id;
  resp.rows = shard_rows(shard, platform);
  return encode_frame(std::move(resp));
}

}  // namespace cloudwf::svc
