#!/usr/bin/env bash
# Builds the perfbench program (and the cloudwf library from ../src) into
# .bench_build/perfbench at the repository root, then runs one workload:
#
#   bash perfbench/run.sh --workload <svc-repeat|sweep-paper|large-dag> \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last stdout line of perfbench is the JSON
# result. The first run configures and compiles (about a minute on 4 cores);
# later runs only check that the build is current.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build/perfbench"

if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja > /dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target perfbench -j "$(nproc)" >&2

exec "$build/perfbench" --trace-file "$build/trace.jsonl" "$@"
