// perfbench: the repository benchmark.
//
//   perfbench --workload <svc-repeat|sweep-paper|large-dag>
//             [--seed N] [--seconds N] [--trace 0|1] [--trace-file PATH]
//
// Runs one workload and prints, as its last stdout line, one JSON object
// with "correct", "attempted", "failed" and "metrics". See README.md.
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "common.hpp"
#include "util/parse.hpp"

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload <svc-repeat|sweep-paper|large-dag>"
    " [--seed N] [--seconds 1-60] [--trace 0|1] [--trace-file PATH]";

perfbench::Options parse_options(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc)
      throw std::invalid_argument(std::string(flag) + " needs a value");
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      if (value != "svc-repeat" && value != "sweep-paper" &&
          value != "large-dag")
        throw std::invalid_argument("--workload: unknown workload '" +
                                    std::string(value) + "'");
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = cloudwf::util::parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      options.seconds = cloudwf::util::parse_u64(value, "--seconds", 1, 60);
    } else if (flag == "--trace") {
      options.trace = cloudwf::util::parse_u64(value, "--trace", 0, 1) == 1;
    } else if (flag == "--trace-file") {
      options.trace_file = value;
    } else {
      throw std::invalid_argument("unknown flag '" + std::string(flag) + "'");
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "perfbench: " << e.what() << '\n' << kUsage << '\n';
    return 1;
  }
  try {
    const perfbench::Report report =
        options.workload == "svc-repeat" ? perfbench::run_svc(options)
                                         : perfbench::run_sweep(options);
    std::cout << perfbench::report_json(report) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << ": " << e.what() << '\n';
    return 2;
  }
}
