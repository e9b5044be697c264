#!/usr/bin/env python3
"""Compare a fresh bench snapshot against a checked-in baseline.

    perf_diff.py --baseline BENCH_update.json --current fresh.json \
                 [--tolerance PCT]

Both files are bench/support/snapshot.hpp output: a flat JSON object whose
"bench" key names the snapshot and whose remaining keys are metrics. The
direction of "worse" is inferred from the key name:

  * lower is better:  keys ending in _us, _ns, _ms, _seconds (latencies)
    or _pct (overheads such as serve_overhead_pct);
  * higher is better: keys ending in _mops, _rps, _mbs, _mbps, or
    containing "speedup" (throughputs);
  * anything else (configuration echoes like hosts, packets_per_window,
    non-numeric fields): presence + equality is informational only.

A directional metric fails when it is worse than the baseline by more than
--tolerance percent (default 50 — CI runners and dev machines differ by a
lot more than run-to-run noise on one box, so the trajectory gate is a
safety net against order-of-magnitude regressions, not a 5% tripwire).
Improvements never fail. A directional key present in the baseline but
missing from the current run always fails: silently dropping a metric is
how regressions hide.

Exit codes: 0 = within tolerance, 1 = regression (or missing metric),
2 = usage / IO / parse error.
"""

import argparse
import json
import sys

LOWER_BETTER_SUFFIXES = ("_us", "_ns", "_ms", "_seconds", "_pct")
HIGHER_BETTER_SUFFIXES = ("_mops", "_rps", "_mbs", "_mbps")


def direction(key):
    """'down' if lower is better, 'up' if higher is better, None if neutral."""
    if key.endswith(LOWER_BETTER_SUFFIXES):
        return "down"
    if key.endswith(HIGHER_BETTER_SUFFIXES) or "speedup" in key:
        return "up"
    return None


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write("perf_diff: cannot read %s: %s\n" % (path, e))
        sys.exit(2)
    if not isinstance(data, dict):
        sys.stderr.write("perf_diff: %s is not a JSON object\n" % path)
        sys.exit(2)
    return data


def main():
    ap = argparse.ArgumentParser(
        description="Gate a fresh bench snapshot against a checked-in baseline."
    )
    ap.add_argument("--baseline", required=True, help="checked-in BENCH_*.json")
    ap.add_argument("--current", required=True, help="snapshot from this run")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=50.0,
        help="max %% worse than baseline before failing (default: 50)",
    )
    args = ap.parse_args()
    if args.tolerance <= 0:
        ap.error("--tolerance must be positive")

    base = load(args.baseline)
    cur = load(args.current)

    if base.get("bench") != cur.get("bench"):
        sys.stderr.write(
            "perf_diff: snapshot name mismatch: baseline %r vs current %r\n"
            % (base.get("bench"), cur.get("bench"))
        )
        return 2

    print(
        "perf trajectory: %s (tolerance %.0f%%)"
        % (base.get("bench", "?"), args.tolerance)
    )
    failures = 0
    for key, bval in base.items():
        if key == "bench":
            continue
        d = direction(key)
        if key not in cur:
            if d is None:
                print("  %-28s %-14s (informational, missing in current)" % (key, bval))
            else:
                print("  %-28s MISSING in current run -> FAIL" % key)
                failures += 1
            continue
        cval = cur[key]
        if d is None or not isinstance(bval, (int, float)) or isinstance(bval, bool):
            note = "" if bval == cval else "  (changed from %r)" % (bval,)
            print("  %-28s %-14r%s" % (key, cval, note))
            continue
        if not isinstance(cval, (int, float)) or isinstance(cval, bool):
            print("  %-28s non-numeric %r -> FAIL" % (key, cval))
            failures += 1
            continue
        if bval == 0:
            print("  %-28s baseline is 0, skipping ratio" % key)
            continue
        # Positive delta_pct = worse, regardless of direction.
        change_pct = (cval - bval) / bval * 100.0
        worse_pct = -change_pct if d == "up" else change_pct
        verdict = "FAIL" if worse_pct > args.tolerance else "ok"
        if verdict == "FAIL":
            failures += 1
        arrow = "down" if d == "down" else "up"
        print(
            "  %-28s %12.3f -> %12.3f  %+7.1f%% (%s is better) %s"
            % (key, bval, cval, change_pct, arrow, verdict)
        )

    if failures:
        print("perf_diff: %d metric(s) regressed beyond tolerance" % failures)
        return 1
    print("perf_diff: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
