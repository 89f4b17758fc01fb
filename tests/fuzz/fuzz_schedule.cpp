// Fuzz target: sim/schedule_io parser, checked end to end against the
// schedule-invariant oracle.
//
// Property: parse_schedule_string against a fixed diamond workflow either
// throws std::runtime_error or yields a structurally valid schedule that the
// validator and the oracle can analyze without crashing. (Oracle violations
// are fine — a loaded schedule may be infeasible; crashes and non-finite
// arithmetic are not.) The oracle's report opens with exactly sim::validate's
// violations (same codes, same details, same order) and holds no further
// structural code: the validator is the oracle's structural half.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "check/oracle.hpp"
#include "cloud/platform.hpp"
#include "dag/workflow.hpp"
#include "sim/schedule_io.hpp"
#include "sim/validator.hpp"

namespace {

const cloudwf::dag::Workflow& fixed_workflow() {
  using cloudwf::dag::Workflow;
  static const Workflow wf = [] {
    Workflow w{"fuzz"};
    const auto a = w.add_task("a", 100.0, 0.5);
    const auto b = w.add_task("b", 200.0, 1.5);
    const auto c = w.add_task("c", 300.0);
    const auto d = w.add_task("d", 50.0);
    w.add_edge(a, b);
    w.add_edge(a, c, 2.0);
    w.add_edge(b, d);
    w.add_edge(c, d);
    return w;
  }();
  return wf;
}

bool structural(std::string_view invariant) {
  return invariant == "assignment" || invariant == "duration" ||
         invariant == "table-timeline" || invariant == "overlap" ||
         invariant == "precedence";
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace cloudwf;

  static const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow& wf = fixed_workflow();

  const std::string input(reinterpret_cast<const char*>(data), size);
  sim::Schedule schedule{wf};
  try {
    schedule = sim::parse_schedule_string(wf, input);
  } catch (const std::runtime_error&) {
    return 0;
  }

  // Whatever loaded must survive both checkers without crashing, and the
  // two must report the same structural violations.
  const auto issues = sim::validate(wf, schedule, platform);
  const check::OracleReport report = check::check_schedule(wf, schedule, platform);
  const auto& violations = report.violations;
  if (violations.size() < issues.size()) __builtin_trap();
  for (std::size_t i = 0; i < issues.size(); ++i)
    if (violations[i].invariant != issues[i].invariant ||
        violations[i].detail != issues[i].detail)
      __builtin_trap();
  for (std::size_t i = issues.size(); i < violations.size(); ++i)
    if (structural(violations[i].invariant)) __builtin_trap();
  (void)report.to_json().dump();
  return 0;
}
