#!/usr/bin/env bash
# Strategy-label parity for the `cloudwf` front-end.
#
# `cloudwf list` must print exactly the golden listing, and `cloudwf run`
# must accept every listed strategy label, the xlarge homogeneous series and
# the long size aliases ("OneVMperTask-small"), while rejecting unknown
# labels with exit 1 and an error naming the label.
#
#   cli_strategy_labels_test.sh <path-to-cloudwf> <path-to-golden-listing>
set -u

CLOUDWF=$1
GOLDEN=$2
failures=0

if ! diff -u "$GOLDEN" <("$CLOUDWF" list); then
  echo "FAIL: cloudwf list differs from $GOLDEN" >&2
  failures=$((failures + 1))
fi

labels=$(sed -n 's/^  //p' "$GOLDEN")
for prov in OneVMperTask StartParNotExceed StartParExceed AllParExceed \
    AllParNotExceed; do
  labels="$labels $prov-xl"
  for size in small medium large xlarge; do labels="$labels $prov-$size"; done
done

for label in $labels; do
  if ! "$CLOUDWF" run --workflow sequential --strategy "$label" >/dev/null; then
    echo "FAIL: cloudwf run rejected '$label'" >&2
    failures=$((failures + 1))
  fi
done

for label in NotAStrategy-s OneVMperTask PCH-small cpa-eager; do
  err=$("$CLOUDWF" run --workflow sequential --strategy "$label" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 1 ] || [[ "$err" != *"'$label'"* ]]; then
    echo "FAIL: unknown label '$label': exit $rc, error '$err'" >&2
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "$failures strategy-label check(s) failed" >&2
  exit 1
fi
echo "strategy labels: all checks passed"
