#!/usr/bin/env python3
"""Steadiness and comparison of benchmark runs, against BENCHMARK.json.

Run a workload several times and summarize each metric:

    python3 perfbench/steady.py run --workload sim-bursty --seeds 1-10 \
        [--seconds N] [--trace 0] [--out runs.json]

prints each metric's median, quartiles and spread (the distance between the
quartiles as a share of the median, as statistics.quantiles(n=4) gives
them) next to the metric's bound.  A spread under a third of the bound reads
"steady".  Every run must report correct with no failures.

Compare two sets of runs (e.g. parent and change, same seeds):

    python3 perfbench/steady.py compare base.json new.json

For each end-to-end metric: both medians, the change as a share of the base
median (positive = worse), and a verdict.  "REGRESSED" means worse by more
than the bound; "unresolved" means a spread is wider than the bound, unless
every new run beats every base run; "improved" means the new run wins at
least nine in ten pairs (matched by run order, i.e. by seed) and the medians
differ by more than the base spread.  Exits 1 on a regression or a failed
run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(trace):
    spec = bench_spec()
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steady.py: seed {seed}: no result line "
                         f"(exit {proc.returncode})")
    result["seed"] = seed
    result["exit"] = proc.returncode
    return result


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def summarize(runs, trace):
    specs = metric_specs(trace)
    names = list(runs[0]["metrics"])
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        s = spread(values)
        bound = specs.get(name, {}).get("bound")
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "(spread not gated)"
        else:
            verdict = ("steady" if s < bound / 3 else
                       "within bound" if s <= bound else "UNSTEADY")
        print(f"{name:28} {statistics.median(values):14.6g} {q1:14.6g} "
              f"{q3:14.6g} {s:8.4f} {bound if bound is not None else '':>6}"
              f"  {verdict}")
    bad = [r["seed"] for r in runs
           if not r["correct"] or r["failed"] or r["exit"]]
    if bad:
        print(f"runs with errors: seeds {bad}")
    return not bad


def wins(base, new, lower):
    """Pairs (in run order, i.e. by seed) in which the new run is better."""
    return sum((y < x) if lower else (y > x) for x, y in zip(base, new))


def compare(base, new):
    specs = metric_specs(False)
    ok = True
    print(f"{'metric':20} {'base':>12} {'new':>12} {'change':>8} "
          f"{'bound':>6}  verdict")
    for name, spec in specs.items():
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        bm, nm = statistics.median(b), statistics.median(n)
        lower = spec["better"] == "lower"
        worse = (nm - bm) / bm if lower else (bm - nm) / bm
        all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
        gated_spread = max(spread(b), spread(n)) if name != "setup_s" else 0
        if gated_spread > spec["bound"] and not all_better:
            verdict = "unresolved"
        elif worse > spec["bound"]:
            verdict = "REGRESSED"
            ok = False
        elif -worse > spread(b) and wins(b, n, lower) >= 0.9 * len(n):
            verdict = "improved"
        else:
            verdict = "same"
        print(f"{name:20} {bm:12.6g} {nm:12.6g} {worse:+8.4f} "
              f"{spec['bound']:6}  {verdict}")
    for label, runs in (("base", base), ("new", new)):
        if any(not r["correct"] or r["failed"] or r["exit"] for r in runs):
            print(f"{label}: some runs failed their checks")
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,5,9")
    run.add_argument("--seconds", type=float,
                     default=bench_spec()["run_seconds"])
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    args = parser.parse_args()

    if args.cmd == "run":
        runs = [run_once(args.workload, seed, args.seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        if args.out:
            Path(args.out).write_text(json.dumps(runs, indent=1))
        ok = summarize(runs, args.trace == 1)
    else:
        ok = compare(json.loads(Path(args.base).read_text()),
                     json.loads(Path(args.new).read_text()))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
