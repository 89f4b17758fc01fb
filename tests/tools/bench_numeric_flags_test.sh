#!/usr/bin/env bash
# Strict numeric parsing for the bench binaries' arguments (util/parse.hpp):
# a malformed value must exit 1 with an error naming the flag (or the
# positional argument), before any benchmark work starts.
#
#   bench_numeric_flags_test.sh <bench_parallel_sweep> <bench_trace_overhead>
#                               <bench_service> <bench_distributed>
set -u

SWEEP=$1
TRACE=$2
SERVICE=$3
DISTRIBUTED=$4
failures=0

# expect_reject <name> <cmd...>: exit 1, and stderr names <name>.
expect_reject() {
  local name=$1
  shift
  local err
  err=$("$@" 2>&1 >/dev/null)
  local rc=$?
  if [ "$rc" -ne 1 ] || [[ "$err" != *"$name"* ]]; then
    echo "FAIL [$name]: exit $rc, error '$err': $*" >&2
    failures=$((failures + 1))
  fi
}

expect_reject seeds "$SWEEP" 12abc
expect_reject seeds "$SWEEP" -3
expect_reject seeds "$SWEEP" 0
expect_reject repeats "$TRACE" nine
expect_reject repeats "$TRACE" 9x
expect_reject requests "$SERVICE" 4k
expect_reject --workers "$SERVICE" --workers 0x4
expect_reject --workers "$SERVICE" --workers 0
expect_reject --concurrency "$SERVICE" --concurrency -8
expect_reject --seeds "$DISTRIBUTED" --seeds 1e3
expect_reject --reps "$DISTRIBUTED" --reps three
expect_reject --remote-ms "$DISTRIBUTED" --remote-ms 60ms

if [ "$failures" -ne 0 ]; then
  echo "$failures bench flag check(s) failed" >&2
  exit 1
fi
echo "bench numeric flags: all checks passed"
