// Throughput/tail-latency bench for the simulation service: an in-process
// `svc::Server` (4 compute workers by default) driven by closed-loop
// keep-alive HTTP clients firing single-seed Montage /v1/evaluate requests
// — the service-layer counterpart of bench_parallel_sweep.
//
// Usage: bench_service [requests] [--workers N] [--concurrency C]
//                      [--json FILE]
//
// --json FILE writes the BENCH_SERVICE.json shape that
// tools/check_bench_regression.py gates CI on: sustained req/s, p50/p95/p99
// latency, and the same splitmix calibration anchor bench_parallel_sweep
// uses, so the gate compares machine-relative scores.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "svc/http.hpp"
#include "svc/server.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

#include "harness.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct LoadReport {
  double wall_s = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::vector<double> latencies_ms;

  [[nodiscard]] double throughput() const {
    return wall_s > 0 ? static_cast<double>(ok) / wall_s : 0;
  }
};

LoadReport run_closed_loop(std::uint16_t port, std::size_t requests,
                           std::size_t concurrency) {
  std::vector<LoadReport> parts(concurrency);
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();

  std::vector<std::thread> workers;
  workers.reserve(concurrency);
  for (std::size_t w = 0; w < concurrency; ++w) {
    workers.emplace_back([&, w] {
      LoadReport& mine = parts[w];
      cloudwf::svc::HttpClient client;
      if (!client.connect("127.0.0.1", port)) {
        ++mine.errors;
        return;
      }
      for (;;) {
        const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
        if (index >= requests) return;
        const std::string body =
            R"({"workflow":"montage","strategy":"AllParExceed-m","scenario":"pareto","seed":)" +
            std::to_string(index % 50) + "}";
        const Clock::time_point begin = Clock::now();
        const auto response = client.request("POST", "/v1/evaluate", body);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - begin)
                .count();
        if (response && response->status == 200) {
          ++mine.ok;
          mine.latencies_ms.push_back(ms);
        } else {
          ++mine.errors;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();

  LoadReport total;
  total.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (LoadReport& p : parts) {
    total.ok += p.ok;
    total.errors += p.errors;
    total.latencies_ms.insert(total.latencies_ms.end(), p.latencies_ms.begin(),
                              p.latencies_ms.end());
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using cloudwf::util::format_double;
  using cloudwf::util::percentile;

  std::size_t requests = 4000;
  std::size_t workers = 4;
  std::size_t concurrency = 8;
  std::string json_path;
  try {
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg == "--json" && a + 1 < argc) {
        json_path = argv[++a];
      } else if (arg == "--workers" && a + 1 < argc) {
        workers = cloudwf::util::parse_size(argv[++a], "--workers", 1);
      } else if (arg == "--concurrency" && a + 1 < argc) {
        concurrency = cloudwf::util::parse_size(argv[++a], "--concurrency", 1);
      } else {
        requests = cloudwf::util::parse_size(arg, "requests", 1);
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what()
              << "\nusage: bench_service [requests>=1] [--workers N] "
                 "[--concurrency C] [--json FILE]\n";
    return EXIT_FAILURE;
  }

  cloudwf::svc::ServerConfig config;
  config.port = 0;  // ephemeral
  config.workers = workers;
  config.max_queue = 256;
  cloudwf::svc::Server server(config);
  server.start();

  std::cout << "=== Service bench: single-seed montage /v1/evaluate, "
            << requests << " requests, " << workers << " workers, "
            << concurrency << " closed-loop connections ===\n";

  // Warm-up: fault in code paths, allocator pools and the first few batches.
  (void)run_closed_loop(server.port(), std::min<std::size_t>(requests, 256),
                        concurrency);

  const LoadReport report =
      run_closed_loop(server.port(), requests, concurrency);
  const double p50 = report.latencies_ms.empty()
                         ? 0 : percentile(report.latencies_ms, 50);
  const double p95 = report.latencies_ms.empty()
                         ? 0 : percentile(report.latencies_ms, 95);
  const double p99 = report.latencies_ms.empty()
                         ? 0 : percentile(report.latencies_ms, 99);

  const auto& counters = server.counters();
  std::cout << "  ok          " << report.ok << " in "
            << format_double(report.wall_s, 2) << " s -> "
            << format_double(report.throughput(), 0) << " req/s\n"
            << "  errors      " << report.errors << '\n'
            << "  latency ms  p50 " << format_double(p50, 2) << " | p95 "
            << format_double(p95, 2) << " | p99 " << format_double(p99, 2)
            << '\n'
            << "  batching    " << counters.batches_run.load() << " batches, "
            << counters.requests_coalesced.load() << " coalesced, peak queue "
            << counters.queue_depth_peak.load() << '\n';

  server.stop();

  if (report.errors > 0) {
    std::cerr << "FAIL: " << report.errors << " requests failed\n";
    return EXIT_FAILURE;
  }

  if (!json_path.empty()) {
    const double cal = cloudwf::bench::calibration_ms();
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "FAIL: cannot write " << json_path << '\n';
      return EXIT_FAILURE;
    }
    out << "{\n"
        << "  \"benchmark\": \"bench_service\",\n"
        << "  \"workflow\": \"montage\",\n"
        << "  \"scenario\": \"pareto\",\n"
        << "  \"endpoint\": \"evaluate\",\n"
        << "  \"workers\": " << workers << ",\n"
        << "  \"concurrency\": " << concurrency << ",\n"
        << "  \"requests\": " << requests << ",\n"
        << "  \"requests_per_second\": "
        << format_double(report.throughput(), 1) << ",\n"
        << "  \"p50_ms\": " << format_double(p50, 3) << ",\n"
        << "  \"p95_ms\": " << format_double(p95, 3) << ",\n"
        << "  \"p99_ms\": " << format_double(p99, 3) << ",\n"
        << "  \"errors\": " << report.errors << ",\n"
        << "  \"calibration_ms\": " << format_double(cal, 3) << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << '\n';
  }
  return EXIT_SUCCESS;
}
