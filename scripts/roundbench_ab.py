#!/usr/bin/env python3
"""Alternating A/B pairs of roundbench runs: a parent checkout against a change.

Usage:

    python3 scripts/roundbench_ab.py PARENT_DIR CHANGE_DIR --workload W \
        --pairs N --seconds S --seed0 K
    python3 scripts/roundbench_ab.py --self-test

Pair i runs `python3 roundbench/run.py --workload W --seed K+i --seconds S`
once in each checkout (each builds into its own .bench_build/), the parent
first on even pairs and the change first on odd ones, so slow drift of the
host does not favour one side. Every run's metrics are printed as it ends.
Then, for each end-to-end metric named in BENCHMARK.json (read from the
root of the checkout that holds this script), the summary gives each
side's median and quartiles (`statistics.quantiles(n=4)`, as
roundbench/NOTES.md measures spread), the change's win count in the
metric's `better` direction (ties count for neither side), the median's
relative move against the metric's regression bound, and whether a gain
claim would hold: wins in at least nine tenths of the pairs, and a median
gap in the better direction larger than the parent's interquartile range.
A pair in which either run failed counts against the win fraction and
adds no sample.

The script writes nothing; run.py's build trees are its own.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def load_metrics(benchmark_path):
    with open(benchmark_path) as f:
        return json.load(f)["end_to_end"]


def run_order(pair):
    """Which side runs first in pair `pair`: the parent on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(checkout, workload, seed, seconds):
    """Runs roundbench in `checkout`; returns its result object or None."""
    command = [sys.executable, os.path.join("roundbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    run = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                         text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def values_of(result, metrics):
    """The end-to-end values of one run, by metric name."""
    if result is None or not result.get("correct", False):
        return None
    got = result.get("metrics", {})
    if any(m["name"] not in got for m in metrics):
        return None
    return {m["name"]: float(got[m["name"]]["value"]) for m in metrics}


def quartiles(xs):
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(xs) < 2:
        return (xs[0],) * 3 if xs else (float("nan"),) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summarize(metric, pairs):
    """Summary of one metric over `pairs`: (parent, change) value dicts or
    None for a pair with a failed run."""
    name = metric["name"]
    lower = metric["better"] == "lower"
    done = [p for p in pairs if p is not None]
    parent = [p[0][name] for p in done]
    change = [p[1][name] for p in done]
    wins = sum(1 for a, b in zip(parent, change)
               if (b < a if lower else b > a))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = (p_med - c_med) if lower else (c_med - p_med)
    iqr = p_q3 - p_q1
    claim = bool(pairs) and 10 * wins >= 9 * len(pairs) and gap > iqr
    move = (c_med - p_med) / p_med if p_med else 0.0
    worse = -move if not lower else move
    return {
        "metric": name, "unit": metric["unit"], "better": metric["better"],
        "pairs": len(pairs), "samples": len(done),
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "wins": wins, "gap": gap, "parent_iqr": iqr, "claim_holds": claim,
        "move": move, "bound": metric["bound"],
        "within_bound": worse <= metric["bound"],
    }


def format_summary(s):
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    return (f"{s['metric']} ({s['unit']}, {s['better']} is better): "
            f"parent {side(s['parent'])}, change {side(s['change'])}; "
            f"change wins {s['wins']}/{s['pairs']}; median gap "
            f"{s['gap']:.6g} vs parent IQR {s['parent_iqr']:.6g}; "
            f"claim {'holds' if s['claim_holds'] else 'does not hold'}; "
            f"median moved {100 * s['move']:+.2f} % "
            f"({'within' if s['within_bound'] else 'BEYOND'} the "
            f"{100 * s['bound']:g} % bound)")


def self_test():
    metrics = [
        {"name": "round_ms", "unit": "ms", "better": "lower", "bound": 0.2},
        {"name": "rounds_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "ok_frac", "unit": "ratio", "better": "higher",
         "bound": 0.01},
    ]

    def pair(p_ms, c_ms, ok=(1.0, 1.0)):
        return ({"round_ms": p_ms, "rounds_per_s": 1000 / p_ms,
                 "ok_frac": ok[0]},
                {"round_ms": c_ms, "rounds_per_s": 1000 / c_ms,
                 "ok_frac": ok[1]})

    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    expect("order of pair 0", run_order(0), ("parent", "change"))
    expect("order of pair 1", run_order(1), ("change", "parent"))

    # Ten pairs, the change ~10 % faster in every one: the claim holds in
    # both directions of `better`.
    parent = [13.0, 13.2, 13.4, 13.1, 13.5, 13.3, 13.6, 13.2, 13.4, 13.3]
    clear = [pair(p, 0.9 * p) for p in parent]
    by_name = {m["name"]: summarize(m, clear) for m in metrics}
    ms = by_name["round_ms"]
    expect("wins", ms["wins"], 10)
    expect("claim", ms["claim_holds"], True)
    expect("parent median", round(ms["parent"][1], 6), 13.3)
    expect("parent q1", round(ms["parent"][0], 6), 13.175)
    expect("parent q3", round(ms["parent"][2], 6), 13.425)
    expect("within bound", ms["within_bound"], True)
    expect("rate wins", by_name["rounds_per_s"]["wins"], 10)
    expect("rate claim", by_name["rounds_per_s"]["claim_holds"], True)
    # Equal ok_frac everywhere: ties count for neither side.
    expect("tie wins", by_name["ok_frac"]["wins"], 0)
    expect("tie claim", by_name["ok_frac"]["claim_holds"], False)
    expect("tie within bound", by_name["ok_frac"]["within_bound"], True)

    # Eight of ten wins is not nine tenths, however large the gap.
    eight = clear[:8] + [pair(13.0, 13.5), pair(13.2, 13.2)]
    expect("8/10 wins", summarize(metrics[0], eight)["wins"], 8)
    expect("8/10 claim", summarize(metrics[0], eight)["claim_holds"], False)

    # Every pair won, but by less than the parent's own spread.
    wide = [13.0, 14.0, 12.0, 15.0, 11.0, 13.5, 12.5, 14.5, 11.5, 13.0]
    narrow = summarize(metrics[0], [pair(p, p - 0.1) for p in wide])
    expect("narrow wins", narrow["wins"], 10)
    expect("narrow claim", narrow["claim_holds"], False)

    # A failed pair counts against the win fraction: 9 wins of 10 pairs
    # hold, 9 of 11 do not.
    nine = clear[:9] + [None]
    expect("failed pair samples", summarize(metrics[0], nine)["samples"], 9)
    expect("9 of 10 claim", summarize(metrics[0], nine)["claim_holds"], True)
    expect("9 of 11 claim",
           summarize(metrics[0], nine + [None])["claim_holds"], False)

    # A 30 % slower change is beyond round_ms's 20 % bound, and a lower
    # ok_frac beyond its 1 % bound.
    slow = summarize(metrics[0], [pair(p, 1.3 * p) for p in parent])
    expect("slow move", round(slow["move"], 6), 0.3)
    expect("slow within bound", slow["within_bound"], False)
    lossy = summarize(metrics[2], [pair(13.0, 13.0, (1.0, 0.9))] * 10)
    expect("lossy within bound", lossy["within_bound"], False)

    # A run that failed or read incorrect adds no values.
    expect("failed run", values_of(None, metrics), None)
    expect("incorrect run",
           values_of({"correct": False, "metrics": {}}, metrics), None)
    good = {"correct": True, "metrics": {
        m["name"]: {"value": 1, "unit": m["unit"]} for m in metrics}}
    expect("correct run", values_of(good, metrics),
           {"round_ms": 1.0, "rounds_per_s": 1.0, "ok_frac": 1.0})

    # The committed BENCHMARK.json names the metrics the summary reads.
    names = [m["name"] for m in load_metrics(
        os.path.join(REPO, "BENCHMARK.json"))]
    expect("BENCHMARK.json has round_ms", "round_ms" in names, True)
    format_summary(ms)

    for failure in failures:
        print(f"roundbench_ab self-test: {failure}", file=sys.stderr)
    print("roundbench_ab self-test:",
          "FAILED" if failures else "all checks passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?", help="parent checkout")
    parser.add_argument("change", nargs="?", help="changed checkout")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload):
        parser.error("PARENT_DIR, CHANGE_DIR and --workload are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not os.path.isfile(os.path.join(checkout, "roundbench", "run.py")):
            parser.error(f"{checkout} holds no roundbench/run.py")

    metrics = load_metrics(os.path.join(REPO, "BENCHMARK.json"))
    dirs = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        got = {}
        for side in run_order(i):
            values = values_of(
                run_once(dirs[side], args.workload, seed, args.seconds),
                metrics)
            got[side] = values
            shown = ("FAILED" if values is None else " ".join(
                f"{k}={v:.6g}" for k, v in values.items()))
            print(f"pair {i} seed {seed} {side}: {shown}", flush=True)
        ok = got["parent"] is not None and got["change"] is not None
        pairs.append((got["parent"], got["change"]) if ok else None)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g}-s runs, "
          f"seeds {args.seed0}-{args.seed0 + args.pairs - 1}")
    for metric in metrics:
        print(format_summary(summarize(metric, pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
