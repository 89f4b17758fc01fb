#!/usr/bin/env python3
"""Gate a benchmark JSON against a committed baseline.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--threshold 0.15]

Two baseline kinds are auto-detected from the file contents:

  - sweep (BENCH_SCENARIOS.json and BENCH_MULTITENANT.json, written by
    `bench_scenarios --json` and `bench_multitenant --json`): carries
    `median_serial_ms` — a *cost*, lower is better. Fails when the current
    median is more than THRESHOLD slower than the baseline.
  - distributed (BENCH_DISTRIBUTED.json, written by
    `bench_distributed --json`): carries `median_distributed_ms` (the
    2-worker wall time) — a *cost*, lower is better — plus the measured
    `speedup_2x`. Beyond the cost comparison, the current run's speedup_2x
    must clear an absolute floor (--speedup-floor, default 1.5): the fabric
    must actually scale, not merely not regress.

All kinds normalize by the file's `calibration_ms` (the same fixed
splitmix64 kernel timed in the same process) when both sides carry one, so
the gate compares machine-relative scores: a slower or faster CI host moves
baseline and current together. Getting faster never fails; a hint to
refresh the baseline is printed instead.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SystemExit(f"{path}: expected a JSON object")
    return doc


def kind_of(doc: dict, path: str) -> str:
    if "median_distributed_ms" in doc:
        return "distributed"
    if "median_serial_ms" in doc:
        return "sweep"
    raise SystemExit(
        f"{path}: neither 'median_distributed_ms' (distributed) nor "
        f"'median_serial_ms' (sweep) present"
    )


def metric(doc: dict, path: str, field: str) -> float:
    try:
        value = float(doc[field])
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"{path}: missing or invalid '{field}': {exc}")
    if value <= 0:
        raise SystemExit(f"{path}: non-positive {field} ({value})")
    return value


def calibration(doc: dict) -> float:
    try:
        return float(doc.get("calibration_ms", 0) or 0)
    except (TypeError, ValueError):
        return 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed relative regression (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--speedup-floor",
        type=float,
        default=1.5,
        help="minimum speedup_2x a distributed run must measure "
        "(default 1.5; only applies to the distributed kind)",
    )
    args = parser.parse_args()

    base_doc = load_doc(args.baseline)
    cur_doc = load_doc(args.current)
    kind = kind_of(base_doc, args.baseline)
    if kind_of(cur_doc, args.current) != kind:
        raise SystemExit(
            f"baseline is a {kind} file but current is not — "
            f"compare like with like"
        )

    # Both sides need the calibration anchor for normalization; otherwise
    # fall back to raw numbers so old and new files stay comparable.
    base_cal, cur_cal = calibration(base_doc), calibration(cur_doc)
    normalized = base_cal > 0 and cur_cal > 0

    if kind == "sweep":
        for key in ("benchmark", "workflow", "seeds"):
            if key not in base_doc:
                raise SystemExit(f"{args.baseline}: missing '{key}' field")
        field, what = "median_serial_ms", "sweep"
    else:
        # Cost comparison on the 2-worker wall time, plus an absolute floor
        # on the current run's measured 2-worker speedup: a fabric that
        # stopped scaling fails even if its wall time looks unchanged.
        speedup = metric(cur_doc, args.current, "speedup_2x")
        if speedup < args.speedup_floor:
            print(
                f"FAIL: current speedup_2x {speedup:.3f} below the "
                f"{args.speedup_floor:.2f} floor — the distributed fabric "
                f"no longer scales at 2 workers",
                file=sys.stderr,
            )
            return 1
        print(f"speedup_2x: {speedup:.3f} (floor {args.speedup_floor:.2f})")
        field, what = "median_distributed_ms", "distributed sweep"
    base = metric(base_doc, args.baseline, field)
    cur = metric(cur_doc, args.current, field)
    if normalized:
        base, cur, unit = base / base_cal, cur / cur_cal, "x calibration"
    else:
        unit = "ms (raw)"
    ratio = cur / base  # cost: higher current = regression

    print(
        f"kind: {kind} | baseline: {base:.3f} {unit} | current: {cur:.3f} "
        f"{unit} | ratio: {ratio:.3f} (limit {1 + args.threshold:.3f})"
    )

    if ratio > 1 + args.threshold:
        print(
            f"FAIL: {what} regressed {100 * (ratio - 1):.1f}% past the "
            f"{100 * args.threshold:.0f}% budget",
            file=sys.stderr,
        )
        return 1
    if ratio < 1 / (1 + args.threshold):
        print(
            "note: current run is substantially better than the baseline — "
            "consider refreshing it"
        )
    print("OK: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
