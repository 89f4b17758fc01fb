#include "common.hpp"

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <iostream>

#include "scheduling/factory.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

void log_limited(std::uint64_t& logged, const std::string& why) {
  if (logged < 10) std::cerr << "perfbench: " << why << '\n';
  ++logged;
}

std::uint64_t fail_logged = 0;

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::fail(const std::string& why) {
  ++failed;
  log_limited(fail_logged, why);
}

void Report::wrong(const std::string& why) {
  correct = false;
  log_limited(fail_logged, why);
}

std::string report_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i != 0) out += ", ";
    out += '"' + cloudwf::util::Json::escape(m.name) + "\": {\"value\": " +
           number(m.value) + ", \"unit\": \"" +
           cloudwf::util::Json::escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out = {
        "svc.http.parse", "svc.protocol.decode", "svc.handlers.resolve",
        "exp.grid",       "dag.generate",        "exp.materialize",
        "dag.structure",  "exp.reference"};
    for (const std::string& label : cloudwf::scheduling::paper_strategy_labels())
      out.push_back("scheduling." + label);
    for (const char* name : {"sim.validate", "sim.metrics", "exp.rows",
                             "svc.encode", "svc.frontend"})
      out.emplace_back(name);
    return out;
  }();
  return names;
}

void add_per_layer(Report& report, const PerLayer& p) {
  double covered = 0;
  for (const std::string& name : layer_names()) {
    const auto it = p.layers.find(name);
    const LayerStat stat = it == p.layers.end() ? LayerStat{} : it->second;
    covered += stat.busy_ms;
    report.add(name + ".busy_ms", stat.busy_ms, "ms");
    report.add(name + ".calls", static_cast<double>(stat.calls), "count");
  }
  report.add("svc.cache.hit_ratio", p.hit_ratio, "ratio");
  report.add("svc.batcher.batches", p.batches, "count");
  report.add("svc.batcher.coalesced_ratio", p.coalesced_ratio, "ratio");
  report.add("svc.batcher.queue_peak", p.queue_peak, "count");
  report.add("svc.refused", p.refused, "count");
  report.add("loadgen.lag_p99_ms", p.lag_p99_ms, "ms");
  report.add("trace.coverage", p.traced_ms > 0 ? covered / p.traced_ms : 0,
             "ratio");
  report.add("trace.overhead",
             p.prod_ms > 0 ? p.replica_ms / p.prod_ms - 1.0 : 0, "ratio");
}

}  // namespace perfbench
