#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

Trace::Id Trace::name(std::string_view text) {
  const std::string key(text);
  const auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  const Id id = static_cast<Id>(names_.size());
  names_.push_back(key);
  ids_.emplace(key, id);
  return id;
}

Trace::Id Trace::open(Id name) {
  const Id id = static_cast<Id>(spans_.size());
  spans_.push_back({name, open_.empty() ? kNone : open_.back(), 0, 0});
  open_.push_back(id);
  spans_.back().start_ns = ns(Clock::now());
  return id;
}

void Trace::close(Id span) {
  const std::int64_t now = ns(Clock::now());
  if (open_.empty() || open_.back() != span)
    throw std::logic_error("trace: spans closed out of order");
  spans_[span].end_ns = now;
  open_.pop_back();
}

void Trace::record(Id name, Clock::time_point start, Clock::time_point end) {
  spans_.push_back(
      {name, open_.empty() ? kNone : open_.back(), ns(start), ns(end)});
}

double Trace::duration_ms(Id span) const {
  return static_cast<double>(spans_[span].end_ns - spans_[span].start_ns) /
         1e6;
}

std::map<std::string, LayerStat> Trace::self_times() const {
  // Children of one parent run one after another on one thread, so the time
  // they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, LayerStat> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerStat& stat = out[names_[spans_[i].name]];
    stat.busy_ms += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                        child_ns[i]) /
                    1e6;
    ++stat.calls;
  }
  return out;
}

double Trace::total_ms(std::string_view name) const {
  const auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return 0;
  std::int64_t total = 0;
  for (const Span& s : spans_)
    if (s.name == it->second) total += s.end_ns - s.start_ns;
  return static_cast<double>(total) / 1e6;
}

bool Trace::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":";
    if (s.parent == kNone)
      out << "null";
    else
      out << s.parent;
    out << ",\"name\":\"" << cloudwf::util::Json::escape(names_[s.name])
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
