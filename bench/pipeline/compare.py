#!/usr/bin/env python3
"""Compare two sets of umon-pipeline results.

    python3 bench/pipeline/compare.py A/ B/ [BENCHMARK.json]

A and B are directories of saved benchmark output (one or more runs per
file, as run.sh prints them). Runs are matched into pairs by (workload,
seed, trace); A is the parent, B the change. Run each pair back to back,
alternating which side goes first, so that slow drift in machine speed
hits both sides of a pair alike. Two runs with the same key on one side
are an error.

For each (workload, trace) the script first prints both sides' correctness
record: failed operations out of attempted, and runs that failed a gate.
Then, for every metric, each side's median and quartiles, the median and
quartiles of the per-pair ratio B/A, B's wins/losses/ties over the pairs,
and a verdict that follows the choosing-metrics rules with the bounds and
directions in BENCHMARK.json:

  gain          B wins at least 9/10 of the pairs (ties count for neither)
                and B's median is better than A's by more than A's
                quartile spread
  refused       the gain rule holds, but B failed more operations than A
                on this workload or a run of B failed a gate
  regression    the median per-pair ratio is worse than the bound
  unresolved    the quartile spread of the per-pair ratios is wider than
                the bound, and not every run of B reads better than every
                run of A
  within-bound  otherwise (no worse than the bound)

Per-layer metrics have no bound: they get `gain`, `refused`, `loss` (the
gain rule with the sides swapped) or `-`. Exit status is 1 when any
end-to-end metric regressed, B failed more operations than A on a
workload, or a run of B failed a gate; 2 on bad input; else 0.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCH = os.path.join(HERE, "..", "..", "BENCHMARK.json")


class InputError(Exception):
    pass


def load_runs(directory):
    """{(workload, seed, trace): run} from every file under directory.

    A run is {"path", "correct", "attempted", "failed", "metrics"}. A header
    with no JSON result after it (the run crashed) counts as an incorrect
    run with one failure and no metrics.
    """
    runs = {}

    def add(key, run):
        if key in runs:
            raise InputError(f"{run['path']}: {key[0]} seed {key[1]} trace "
                             f"{key[2]} also appears in {runs[key]['path']}")
        runs[key] = run

    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        key = None
        with open(path, encoding="utf-8", errors="replace") as f:
            for line in f:
                line = line.strip()
                if line.startswith("# umon-pipeline "):
                    if key is not None:
                        add(key, crashed(path))
                    fields = dict(kv.split("=", 1) for kv in line.split()[2:])
                    key = (fields["workload"], fields["seed"], fields["trace"])
                elif line.startswith("{") and key is not None:
                    result = json.loads(line)
                    add(key, {
                        "path": path,
                        "correct": bool(result["correct"]),
                        "attempted": int(result["attempted"]),
                        "failed": int(result["failed"]),
                        "metrics": {m: v["value"]
                                    for m, v in result["metrics"].items()},
                    })
                    key = None
        if key is not None:
            add(key, crashed(path))
    return runs


def crashed(path):
    return {"path": path, "correct": False, "attempted": 0, "failed": 1,
            "metrics": {}}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt_q(q):
    return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"


def fmt_ratio(q):
    if q is None:
        return "-"
    return (f"{100 * (q[1] - 1):+.1f}% "
            f"[{100 * (q[0] - 1):+.1f}, {100 * (q[2] - 1):+.1f}]")


def better(a, b, higher):
    """+1 if b is better than a, -1 if worse, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (b > a) == higher else -1


def gain_rule(pairs, higher):
    """The choosing-metrics gain rule for the second side of each pair."""
    a_vals = [a for a, _ in pairs]
    b_vals = [b for _, b in pairs]
    q1, med_a, q3 = quartiles(a_vals)
    med_b = statistics.median(b_vals)
    wins = sum(1 for a, b in pairs if better(a, b, higher) > 0)
    return (wins >= 0.9 * len(pairs) and better(med_a, med_b, higher) > 0
            and abs(med_b - med_a) > (q3 - q1))


def ratio_quartiles(pairs):
    """Quartiles of the per-pair ratio B/A, or None when no A is nonzero.

    A pair whose two values are both zero reads as a ratio of 1.
    """
    ratios = [b / a if a else 1.0 for a, b in pairs if a or not b]
    return quartiles(ratios) if ratios else None


def verdict(spec, pairs, rq, blocked):
    higher = spec["better"] == "higher"
    if gain_rule(pairs, higher):
        return "refused" if blocked else "gain"
    if spec["kind"] == "layer":
        return "loss" if gain_rule([(b, a) for a, b in pairs], higher) else "-"
    if rq is None:
        return "unresolved"
    worse = 1 - rq[1] if higher else rq[1] - 1
    if worse > spec["bound"]:
        return "regression"
    all_better = all(better(a, b, higher) > 0
                     for a, _ in pairs for _, b in pairs)
    if rq[2] - rq[0] > spec["bound"] and not all_better:
        return "unresolved"
    return "within-bound"


def correctness(runs):
    """(failed, attempted, incorrect runs) summed over runs."""
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs),
            sum(1 for r in runs if not r["correct"]))


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench_path = argv[3] if len(argv) > 3 else DEFAULT_BENCH
    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    specs = {m["name"]: dict(m, kind="e2e") for m in bench["end_to_end"]}
    specs.update({m["name"]: dict(m, kind="layer") for m in bench["per_layer"]})

    try:
        a_runs, b_runs = load_runs(argv[1]), load_runs(argv[2])
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for side, mine, other in (("A", a_runs, b_runs), ("B", b_runs, a_runs)):
        unpaired = sorted(k for k in mine if k not in other)
        if unpaired:
            print(f"warning: {len(unpaired)} run(s) of {side} have no pair, "
                  f"e.g. {' '.join(unpaired[0])}", file=sys.stderr)

    regressions = 0
    blocked_workloads = 0
    printed = 0
    header = (f"{'workload':<20} {'metric':<32} {'A median [q1,q3]':>34} "
              f"{'B median [q1,q3]':>34} {'B/A per pair [q1,q3]':>26} "
              f"{'W/L/T':>8}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            keys = sorted(k for k in a_runs if k[0] == workload and k[2] == trace
                          and k in b_runs)
            if not keys:
                continue
            fa, ta, ia = correctness([a_runs[k] for k in keys])
            fb, tb, ib = correctness([b_runs[k] for k in keys])
            blocked = fb > fa or ib > 0
            blocked_workloads += blocked
            print(f"\n{workload} trace={trace}: {len(keys)} pairs; failed "
                  f"A {fa}/{ta} B {fb}/{tb}; runs failing a gate A {ia} B {ib}"
                  + ("  -- B fails more: no gain counts" if blocked else ""))
            print(header)
            for metric, spec in specs.items():
                pairs = [(a_runs[k]["metrics"][metric],
                          b_runs[k]["metrics"][metric]) for k in keys
                         if metric in a_runs[k]["metrics"]
                         and metric in b_runs[k]["metrics"]]
                if not pairs:
                    continue
                higher = spec["better"] == "higher"
                qa = quartiles([a for a, _ in pairs])
                qb = quartiles([b for _, b in pairs])
                rq = ratio_quartiles(pairs)
                w = sum(1 for a, b in pairs if better(a, b, higher) > 0)
                l = sum(1 for a, b in pairs if better(a, b, higher) < 0)
                t = len(pairs) - w - l
                v = verdict(spec, pairs, rq, blocked)
                regressions += v == "regression"
                print(f"{workload:<20} {metric:<32} {fmt_q(qa):>34} "
                      f"{fmt_q(qb):>34} {fmt_ratio(rq):>26} "
                      f"{f'{w}/{l}/{t}':>8}  {v}")
                printed += 1
    if printed == 0:
        print("no (workload, seed, trace) run appears on both sides",
              file=sys.stderr)
        return 2
    return 1 if regressions or blocked_workloads else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
