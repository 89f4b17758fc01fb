// Standalone driver for the fuzz targets, used when the toolchain has no
// libFuzzer (GCC builds). Links against one LLVMFuzzerTestOneInput and
//
//   1. replays every file in the corpus paths given on the command line, and
//   2. optionally runs `--runs N` deterministic mutations (seeded with
//      `--seed S`) of the corpus entries through the target.
//
// Crashes surface the usual way: an unexpected exception or __builtin_trap
// aborts the process with a nonzero exit, which is what the CI job gates on.
// With Clang, the targets link -fsanitize=fuzzer instead and this file is
// not compiled.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void run_one(const std::string& input) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(input.data()),
                         input.size());
}

/// Inputs grow by repeated slices only while they are smaller than this, so
/// a mutation stays cheap but can still outgrow every corpus entry (and the
/// targets' size limits, e.g. fuzz_http's 1 KiB header cap).
constexpr std::size_t kMaxGrownSize = 8 * 1024;

/// One mutation step: byte flip, insert, erase, truncate, splice with a
/// second corpus entry, or repeat a slice. Purely Rng-driven, so a
/// (seed, runs) pair is a reproducible sequence.
std::string mutate(const std::string& base, const std::string& donor,
                   cloudwf::util::Rng& rng) {
  std::string out = base;
  // The edit budget scales with the input: 1-8 byte edits meaningfully
  // perturb a 40-byte JSON probe but vanish inside a 10^4-task workflow
  // file, so large corpus entries earn proportionally more steps (capped to
  // keep a single mutation cheap).
  const auto max_steps = static_cast<std::int64_t>(
      std::min<std::size_t>(128, 8 + base.size() / 256));
  const int steps = static_cast<int>(rng.between(1, max_steps));
  for (int i = 0; i < steps; ++i) {
    switch (rng.below(6)) {
      case 0:  // flip a bit
        if (!out.empty()) {
          const std::size_t at = rng.below(out.size());
          out[at] = static_cast<char>(
              static_cast<unsigned char>(out[at]) ^ (1u << rng.below(8)));
        }
        break;
      case 1:  // insert a random byte
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(out.size() + 1)),
                   static_cast<char>(rng.below(256)));
        break;
      case 2:  // erase a byte
        if (!out.empty())
          out.erase(out.begin() +
                    static_cast<std::ptrdiff_t>(rng.below(out.size())));
        break;
      case 3:  // truncate
        if (!out.empty()) out.resize(rng.below(out.size() + 1));
        break;
      case 4:  // splice: head of out + tail of donor
        if (!donor.empty()) {
          const std::size_t cut = rng.below(out.size() + 1);
          const std::size_t from = rng.below(donor.size());
          out = out.substr(0, cut) + donor.substr(from);
        }
        break;
      case 5:  // repeat a slice (up to 64 bytes, up to 64 times) in place
        if (!out.empty() && out.size() < kMaxGrownSize) {
          const std::size_t at = rng.below(out.size());
          const std::size_t len =
              1 + rng.below(std::min<std::size_t>(out.size() - at, 64));
          const std::size_t copies =
              std::min<std::size_t>(1 + rng.below(64),
                                    (kMaxGrownSize - out.size()) / len);
          std::string repeated;
          for (std::size_t c = 0; c < copies; ++c)
            repeated.append(out, at, len);
          out.insert(at + len, repeated);
        }
        break;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t runs = 0;
  std::uint64_t seed = 0x20120131ULL;
  std::vector<fs::path> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--runs" && i + 1 < argc) {
      runs = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--help") {
      std::cout << "usage: " << argv[0]
                << " [--runs N] [--seed S] <corpus file or dir>...\n";
      return 0;
    } else {
      paths.emplace_back(arg);
    }
  }

  // Phase 1: replay the corpus verbatim.
  std::vector<std::string> corpus;
  for (const fs::path& p : paths) {
    if (fs::is_directory(p)) {
      std::vector<fs::path> files;
      for (const auto& entry : fs::directory_iterator(p))
        if (entry.is_regular_file()) files.push_back(entry.path());
      std::sort(files.begin(), files.end());  // deterministic order
      for (const fs::path& f : files) corpus.push_back(read_file(f));
    } else if (fs::is_regular_file(p)) {
      corpus.push_back(read_file(p));
    } else {
      std::cerr << "warning: no such corpus path: " << p << '\n';
    }
  }
  for (const std::string& input : corpus) run_one(input);
  std::uint64_t execs = corpus.size();

  // Phase 2: deterministic mutations of corpus entries.
  if (runs > 0) {
    cloudwf::util::Rng rng(seed);
    if (corpus.empty()) corpus.emplace_back();  // mutate from empty input
    for (std::uint64_t i = 0; i < runs; ++i) {
      const std::string& base = corpus[rng.below(corpus.size())];
      const std::string& donor = corpus[rng.below(corpus.size())];
      run_one(mutate(base, donor, rng));
      ++execs;
    }
  }

  std::cout << "fuzz driver: " << execs << " execs (" << corpus.size()
            << " corpus + " << runs << " mutated), 0 crashes\n";
  return 0;
}
