// In-memory span recorder for the traced run.
//
// The benchmark wraps each call it makes into a module's public functions
// in a span (name, start, end, parent). Spans of one thread nest: the span
// open when another opens becomes its parent. Nothing is written until the
// run ends. A layer's self time is its spans' durations minus the time
// their child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Trace {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0xffffffffu;

  /// Interns a span name; intern once, outside the traced loop.
  [[nodiscard]] Id name(std::string_view text);

  /// Opens a span as a child of the innermost open one.
  [[nodiscard]] Id open(Id name);
  /// Closes the innermost open span, which must be `span`.
  void close(Id span);

  /// RAII span.
  class Scope {
   public:
    Scope(Trace& trace, Id name) : trace_(trace), span_(trace.open(name)) {}
    ~Scope() { trace_.close(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    Id span_;
  };

  /// Records a finished root span with explicit times (a client round
  /// trip, timed outside any open span).
  void record(Id name, Clock::time_point start, Clock::time_point end);

  /// Duration of one recorded span.
  [[nodiscard]] double duration_ms(Id span) const;

  /// Self time and call count per span name.
  [[nodiscard]] std::map<std::string, LayerStat> self_times() const;
  /// Summed duration of every span called `name`.
  [[nodiscard]] double total_ms(std::string_view name) const;

  /// Writes one JSON object per span:
  /// {"id":..,"parent":..,"name":..,"start_ns":..,"end_ns":..}.
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    Id name = 0;
    Id parent = kNone;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  [[nodiscard]] static std::int64_t ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  std::vector<std::string> names_;
  std::unordered_map<std::string, Id> ids_;
  std::vector<Span> spans_;
  std::vector<Id> open_;
};

}  // namespace perfbench
