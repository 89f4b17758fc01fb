#!/usr/bin/env bash
# Regression harness for strict numeric flag parsing (util/parse.hpp).
#
# Every numeric flag of `cloudwf` and `cloudwf_load` must reject malformed
# input — trailing junk, negative values for unsigned flags, out-of-range
# ports, non-numbers — by exiting 1 with an error message that names the
# flag. Before the hardening pass, std::stoul accepted "12abc" silently and
# terminated the process on "abc"; this script pins the fixed behavior for
# each flag individually.
#
#   cli_numeric_flags_test.sh <path-to-cloudwf> <path-to-cloudwf_load>
set -u

CLOUDWF=$1
LOAD=$2
failures=0

# expect_reject <flag-name> <cmd...>: the command must exit 1 and print an
# error mentioning the flag on stderr.
expect_reject() {
  local flag=$1
  shift
  local err
  err=$("$@" 2>&1 >/dev/null)
  local rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL [$flag]: expected exit 1, got $rc: $*" >&2
    failures=$((failures + 1))
    return
  fi
  case "$err" in
    *"$flag"*) ;;
    *)
      echo "FAIL [$flag]: error does not name the flag: '$err'" >&2
      failures=$((failures + 1))
      ;;
  esac
}

# --- cloudwf: every numeric flag, one malformed probe each -----------------
run() { expect_reject "$1" "$CLOUDWF" "${@:2}"; }

run --seed run --workflow montage --strategy OneVMperTask-s --seed 12abc
run --seed run --workflow montage --strategy OneVMperTask-s --seed -3
run "--workflow montage:N" run --workflow montage:huge --strategy OneVMperTask-s
run --budget plan --workflow montage --budget 1.5x
run --deadline plan --workflow montage --deadline nan
run --deadline-factor constrained --workflow montage --deadline-factor zero
run --budget-factor constrained --workflow montage --budget-factor 1..5
run --iterations constrained --workflow montage --search --iterations 3f
run --port serve --port 70000
run --port serve --port 80http
run --workers serve --port 18080 --workers 0x4
run --queue-depth serve --port 18080 --queue-depth none
run --timeout-ms serve --port 18080 --timeout-ms 100ms
run --max-connections serve --port 18080 --max-connections -1
run --event-loop-threads serve --port 18080 --event-loop-threads two
run --response-cache serve --port 18080 --response-cache 1e3
run --seeds sweep --seeds 0:bad
run --seeds sweep --seeds x:4
run --listen-port sweep --distributed --listen-port 99999
run --shards sweep --distributed --listen-port 0 --shards 8.5
run --lease-timeout-ms sweep --distributed --listen-port 0 --lease-timeout-ms 5s
run --max-attempts sweep --distributed --listen-port 0 --max-attempts many
run "cloudwf worker --connect" sweep --distributed --connect localhost:1
run "--connect port" worker --connect localhost:0
run --delay-ms worker --connect localhost:1234 --delay-ms -10
run --max-shards worker --connect localhost:1234 --max-shards 1k
run --poll-ms worker --connect localhost:1234 --poll-ms fast
run --cases check --cases 0
run --cases check --cases ten
run --seed check --cases 1 --seed 0xbeef
run --threads check --cases 1 --threads 4cores
run --large-tasks check --cases 1 --large-tasks 1_000
run --tenants mtsim --tenants 0
run --tenants mtsim --tenants -2
run --arrival mtsim --arrival 0
run --arrival mtsim --arrival fast
run --jobs mtsim --jobs 1.5
run --seed mtsim --seed seed
run --sigma mtsim --sigma -0.5
run --quantum mtsim --quantum 0
run --quota mtsim --quota unlimited

# --- cloudwf_load ----------------------------------------------------------
load() { expect_reject "$1" "$LOAD" "${@:2}"; }

load --port --port 0
load --port --port 123456
load --port --port 80http
load --requests --port 18080 --requests 0
load --requests --port 18080 --requests 10k
load --concurrency --port 18080 --concurrency -4
load --rate --port 18080 --rate 0
load --rate --port 18080 --rate inf
load --pool --port 18080 --pool 2.0
load --seeds --port 18080 --seeds 1e2
load --tenants --port 18080 --tenants some

if [ "$failures" -ne 0 ]; then
  echo "$failures numeric-flag regression(s)" >&2
  exit 1
fi
echo "all numeric-flag rejections OK"
