#include "dist/worker.hpp"

#include <thread>
#include <variant>
#include <vector>

#include "exp/sweep_grid.hpp"
#include "svc/binproto.hpp"
#include "svc/http.hpp"
#include "svc/protocol.hpp"
#include "util/json.hpp"

namespace cloudwf::dist {

WorkerReport run_worker(const WorkerOptions& options,
                        const cloud::Platform& platform) {
  WorkerReport report;
  svc::HttpClient client;
  std::vector<std::pair<std::string, std::string>> headers;
  if (!options.auth_token.empty())
    headers.emplace_back("X-Auth-Token", options.auth_token);

  // The coordinator may come up after the worker (CI starts both at once) —
  // retry the first connect on a short clock before giving up.
  std::size_t connect_attempts = 0;
  while (!client.connect(options.host, options.port)) {
    if (++connect_attempts > options.connect_retries) return report;
    std::this_thread::sleep_for(options.poll_interval);
  }

  while (report.shards_completed < options.max_shards) {
    const std::optional<svc::HttpResponse> lease =
        client.request("POST", "/v1/shard/lease", "", headers);
    if (!lease) return report;  // coordinator gone
    if (lease->status == 204) {
      report.finished = true;
      return report;
    }
    if (lease->status == 503) {
      std::this_thread::sleep_for(options.poll_interval);
      continue;
    }
    if (lease->status != 200) {
      // A refusal (401 without the token, 410 for a failed sweep); the
      // error body says why.
      report.failure = std::to_string(lease->status) + ": " + lease->body;
      return report;
    }

    exp::ShardSpec shard;
    std::vector<exp::SweepRow> rows;
    try {
      shard = svc::decode_shard(util::Json::parse(lease->body));
      svc::validate_shard(shard);
      rows = exp::run_shard(shard, platform);
    } catch (const std::exception&) {
      // Unusable spec or a local execution error: drop the lease (the
      // coordinator re-issues it after the timeout) and keep serving.
      report.shards_failed += 1;
      continue;
    }

    if (options.delay_per_shard.count() > 0)
      std::this_thread::sleep_for(options.delay_per_shard);

    svc::BinShardResponse result;
    result.shard_id = shard.shard_id;
    result.rows = std::move(rows);
    const std::optional<svc::HttpResponse> posted =
        client.request("POST", "/v1/shard/result",
                       svc::encode_frame(std::move(result)), headers,
                       svc::kBinaryContentType);
    if (!posted) return report;
    if (posted->status != 200) {
      report.shards_failed += 1;
      continue;
    }
    try {
      const util::Json body = util::Json::parse(posted->body);
      const util::Json* accepted = body.find("accepted");
      if (accepted != nullptr && accepted->is_bool() && accepted->as_bool())
        report.shards_completed += 1;
      else
        report.shards_duplicate += 1;
    } catch (const std::exception&) {
      report.shards_failed += 1;
    }
  }
  return report;
}

}  // namespace cloudwf::dist
