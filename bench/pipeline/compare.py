#!/usr/bin/env python3
"""Compare two sets of bench_pipeline runs, one row per workload and metric.

usage: compare.py A1.json ... A10.json -- B1.json ... B10.json
       compare.py --self-test path/to/bench_pipeline

Each file is a results JSON written by run.sh (one untraced run of every
workload). A is the parent commit, B the change. Give each side the same
number of runs, at least ten, interleaved in the order they ran (alternating
which side runs first), so A[i] and B[i] form a pair.

The rows are the end-to-end metrics of BENCHMARK.json at the repo root, with
its bounds and directions, then the call metrics below, which the runs print
as "workload metric value unit" lines for the workloads that define them.
A call that is a small share of an operation cannot move op_s_p50 past its
bound, so these are gated here on their own.

Each row reads:
  unresolved  the parent's own quartile spread exceeds the bound, and not
              every B run beats every A run;
  worse       B's median is worse than A's by more than the bound;
  better      B wins at least nine tenths of all pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread;
  same        otherwise.
Exits 1 when any row is worse or any run is incorrect, else 0.

--self-test smoke-runs every workload, untraced and traced, and checks each
result line: correct, no failed operation, and exactly the metrics and units
BENCHMARK.json lists, in its order (end-to-end values must be positive).
"""
import json
import math
import pathlib
import statistics
import subprocess
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10

# name, unit, better, bound. Timings share op_s_p50's bound (the host's drift
# sets it, see README); outputs are fixed per seed, so any change is a change.
CALL_METRICS = [
    ("plan_s_p50", "s", "lower", 0.25),
    ("dc_eval_s_p50", "s", "lower", 0.25),
    ("sim_tasks_per_s", "1/s", "higher", 0.25),
    ("recover_s_p50", "s", "lower", 0.25),
    ("horizon_step_ms_p50", "ms", "lower", 0.25),
    ("fault_sim_s_p50", "s", "lower", 0.25),
    ("plan_reward_per_s", "reward/s", "higher", 1e-9),
    ("fig6_improvement_pct", "%", "higher", 1e-9),
    ("achieved_reward_per_s", "reward/s", "higher", 1e-9),
    ("failed_frac", "ratio", "lower", 0.0),
]


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            run = json.load(f)
        if run.get("trace"):
            sys.exit(f"{path}: a traced run; compare untraced runs")
        runs.append(run)
    return runs


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def relative(delta, reference):
    """delta as a share of |reference|; a non-zero change of 0 is infinite."""
    if reference:
        return delta / abs(reference)
    return math.inf if delta > 0 else -math.inf if delta < 0 else 0.0


def verdict(a, b, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    spread = quartile_spread(a)
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    if relative(spread, med_a) > bound and not b_beats_all:
        return "unresolved"
    if relative(sign * (med_b - med_a), med_a) > bound:
        return "worse"
    if wins >= 0.9 * len(a) and abs(med_b - med_a) > spread:
        return "better"
    return "same"


def check_result(proc, catalog, positive):
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["attempted"] < 1 or result["failed"]:
        return (f"correct={result['correct']} attempted={result['attempted']}"
                f" failed={result['failed']}")
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    want = [(m["name"], m["unit"]) for m in catalog]
    if got != want:
        return f"metrics {got} differ from BENCHMARK.json {want}"
    if positive and any(m["value"] <= 0 for m in result["metrics"].values()):
        return "an end-to-end metric is not positive"
    return None


def self_test(binary):
    benchmark = load_benchmark()
    status = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, catalog in (("0", benchmark["end_to_end"]),
                               ("1", benchmark["per_layer"])):
            proc = subprocess.run(
                [binary, "--smoke", "--workload", workload, "--seed", "1",
                 "--seconds", "0.5", "--trace", trace],
                capture_output=True, text=True, timeout=120)
            problem = check_result(proc, catalog, positive=trace == "0")
            print(f"{workload} trace={trace}: {problem or 'ok'}")
            status |= problem is not None
    return status


def rows(benchmark, workload, results):
    """(metric, unit, better, bound, A values, B values) the runs define."""
    for m in benchmark["end_to_end"]:
        yield (m["name"], m["unit"], m["better"], m["bound"],
               *([r["result"]["metrics"][m["name"]]["value"] for r in results[s]]
                 for s in "AB"))
    for name, unit, better, bound in CALL_METRICS:
        sides = [[r["lines"].get(name) for r in results[s]] for s in "AB"]
        present = [line is not None for line in sides[0] + sides[1]]
        if not any(present):
            continue
        if not all(present):
            sys.exit(f"{workload}: {name} is missing from some runs")
        yield (name, unit, better, bound,
               *([line["value"] for line in side] for side in sides))


def main(argv):
    if len(argv) == 2 and argv[0] == "--self-test":
        return self_test(argv[1])
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    side_a, side_b = load_runs(argv[:cut]), load_runs(argv[cut + 1:])
    if len(side_a) != len(side_b) or len(side_a) < MIN_PAIRS:
        sys.exit(f"give A and B the same number of runs, at least {MIN_PAIRS}"
                 f" (got {len(side_a)} and {len(side_b)})")
    benchmark = load_benchmark()

    status = 0
    print(f"{'workload':<16} {'metric':<22} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'A spread':>9} {'bound':>6}  verdict")
    for workload in (w["name"] for w in benchmark["workloads"]):
        results = {}
        for side, runs in (("A", side_a), ("B", side_b)):
            results[side] = [run["workloads"].get(workload) for run in runs]
        if any(r is None or r["result"] is None or not r["result"]["correct"]
               for r in results["A"] + results["B"]):
            print(f"{workload}: a run is missing or incorrect")
            status = 1
            continue
        for name, unit, better, bound, a, b in rows(benchmark, workload,
                                                     results):
            v = verdict(a, b, better, bound)
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = 100 * relative(med_b - med_a, med_a)
            spread = 100 * relative(quartile_spread(a), med_a)
            print(f"{workload:<16} {name:<22} {med_a:>12.6g} {med_b:>12.6g} "
                  f"{change:>7.2f}% {spread:>8.2f}% {100 * bound:>5.0f}%  {v}"
                  f"  ({unit})")
            if v == "worse":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
