#!/usr/bin/env python3
"""Gate a freshly measured bench JSON against the committed perf baseline.

Four modes, selected by --online / --chaos / --stream:

Default (BENCH_micro.json, bench/micro_algorithms): the gated quantity is
each backend's *speedup* — heap ops/sec divided by the frozen scan
reference's ops/sec, both measured in the same process moments apart —
because that ratio cancels the raw speed of the machine running the job.
Absolute ops/sec against a baseline recorded on different hardware would
gate the runner, not the code.  Two checks per (backend, flows) cell:

  1. Regression: current speedup >= (1 - tolerance) * baseline speedup
     (default tolerance 0.25, i.e. fail on a >25% regression).
  2. Floor: at 256 flows the speedup must stay >= --min-speedup (default
     3.0), the overhaul's acceptance criterion, regardless of the baseline.

Cells whose baseline speedup is below 1.0 (the single-flow cells, where a
heap cannot beat a one-element scan and the ratio is run-to-run noise) are
printed as informational and not gated; every backend is still gated at 16
and 256 flows.  Absolute ops/sec are printed for the log but never gated.
A cell present in the current measurement but absent from the baseline
fails with an explicit "regenerate the baseline" message rather than being
silently skipped (or dying with a KeyError on the schema difference).

--online (BENCH_online.json, bench/online_loadgen): the gated quantity is
each (policy, mode) cell's *normalized* throughput — decisions per second
of the replay harness (callers x requests / wall time, each caller
replaying the same arrivals through its own Shaper in virtual time)
divided by the harness's in-process machine-speed reference
(bench/calibration.h) — the same machine-cancelling trick.  Two checks
per cell:

  1. Regression: normalized >= (1 - tolerance) * baseline normalized.
     Wall-clock multi-thread runs are noisier than the micro harness, so
     the online default tolerance is 0.50.
  2. Floor: normalized >= --min-normalized (default 0.02: one decision
     must cost no more than ~50 calibration ops), regardless of baseline.

The Q1 count is printed for the log but not gated here: the decisions
are deterministic, and CI `cmp`s the harness's stdout (counts and digest
per policy) across --threads instead.

--chaos (BENCH_control_plane.json, bench/control_plane): the gated
quantities are *simulation results*, deterministic in the workload and
independent of the machine, so the gate is tight: per
(tenants, chaos, mode) cell the Q1-guarantee tail_violation and q1_miss
fractions must match the baseline within an absolute tolerance (default
0.02 — headroom for cross-compiler FP drift in the capacity search, not
for behaviour change).  Two structural checks run on the *current* numbers
alone, so they hold even if the baseline is regenerated:

  1. Integrity: controller tail_violation <= static tail_violation in
     every cell (the control plane never breaks a guarantee the static
     plan kept).
  2. Defence: in each deepest-chaos scenario the static plan must violate
     and the controller must not — the headline claim the bench exists to
     demonstrate.

--stream (BENCH_stream.json, bench/giant_run): the gated quantity is the
sharded streaming engine's *normalized* throughput — simulation events per
second divided by the harness's in-process calibration rate, the same
machine-cancelling trick as --online.  Checks:

  1. Regression: normalized >= (1 - tolerance) * baseline normalized
     (default tolerance 0.25, i.e. fail on a >25% regression).
  2. Memory contract: the current run's peak RSS must be under its ceiling
     (rss_ok) — the streaming claim is that memory is bounded by the
     barrier window, not the run length, so this is absolute and
     machine-checked on the current numbers alone.
  3. Integrity: completions == requests in the current run.
  4. Observability (instrumented manifests, i.e. --trace/--metrics runs):
     obs_overhead — (untraced - instrumented) / untraced events/sec from
     the harness's own --overhead reference pass — must stay under
     --max-overhead (default 0.20, the <= 20% tracing budget), and
     trace_dropped must be 0 (streaming tracing never silently loses
     spans).  Check 1 only compares like-for-like manifests: an
     instrumented run against an uninstrumented baseline is gated here,
     not on the baseline's raw throughput.

Digests are printed for the log but not gated against the baseline (the
cross-shard byte-identity check is CI's `cmp` over the harness's stdout;
cross-machine FP drift in the generators' libm calls would make a digest
gate flaky).

A missing BASELINE or CURRENT file exits 2 with a message naming it; for
the baseline the message also gives the Release-build command that
regenerates it.

usage: check_perf.py BASELINE CURRENT [--online | --chaos | --stream]
                     [--tolerance F] [--min-speedup S] [--min-normalized R]
"""

import argparse
import json
import sys

FLOOR_KEY = "flows_256"

# The command that regenerates each mode's committed baseline, from a
# Release tree (cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release).
REGENERATE = {
    "micro": "./build-release/bench/micro_algorithms --json {path}",
    "online": "./build-release/bench/online_loadgen --requests 200000 "
              "--threads 4 --repeats 3 --json {path}",
    "chaos": "./build-release/bench/control_plane --threads 2 --json {path}",
    "stream": "./build-release/bench/giant_run --shards 2 --json {path}",
}


def load(path, mode, is_baseline):
    """Parse a bench JSON; exit 2 naming the file when it does not exist."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        if is_baseline:
            print(f"check_perf.py: baseline {path} does not exist; "
                  "regenerate it from a Release build with\n  "
                  + REGENERATE[mode].format(path=path), file=sys.stderr)
        else:
            print(f"check_perf.py: measured file {path} does not exist; "
                  "run the bench that writes it first", file=sys.stderr)
        sys.exit(2)


def check_online(baseline, current, tolerance, min_normalized):
    failures = []
    print(f"{'policy':<8} {'mode':>7} {'base':>8} {'now':>8} "
          f"{'dec/s':>12} {'q1':>9}  status")
    for policy, base_modes in baseline["policies"].items():
        cur_modes = current["policies"].get(policy)
        if cur_modes is None:
            failures.append(f"{policy}: missing from current results")
            continue
        for mode, base in base_modes.items():
            cur = cur_modes.get(mode)
            if cur is None:
                failures.append(f"{policy}/{mode}: missing from current")
                continue
            base_norm = base["normalized"]
            cur_norm = cur["normalized"]
            allowed = (1.0 - tolerance) * base_norm
            problems = []
            if cur_norm < allowed:
                problems.append(
                    f"normalized {cur_norm:.4f} < {allowed:.4f} "
                    f"(>{tolerance:.0%} regression from {base_norm:.4f})")
            if cur_norm < min_normalized:
                problems.append(
                    f"normalized {cur_norm:.4f} below the "
                    f"{min_normalized:.3f} floor")
            status = "FAIL" if problems else "ok"
            print(f"{policy:<8} {mode:>7} {base_norm:>8.4f} "
                  f"{cur_norm:>8.4f} {cur['decisions_per_sec']:>12.0f} "
                  f"{cur['q1']:>9d}  {status}")
            failures.extend(f"{policy}/{mode}: {p}" for p in problems)
    cal = current.get("calibration_ops_per_sec", 0)
    print(f"calibration: {cal:.0f} ops/s "
          f"(baseline machine: {baseline.get('calibration_ops_per_sec', 0):.0f})")
    return failures


def check_chaos(baseline, current, tolerance):
    failures = []
    print(f"{'tenants':<8} {'chaos':<8} {'mode':<11} {'base viol':>9} "
          f"{'now viol':>9} {'base miss':>9} {'now miss':>9}  status")
    for tkey, base_scenarios in baseline["headline"].items():
        cur_scenarios = current["headline"].get(tkey)
        if cur_scenarios is None:
            failures.append(f"{tkey}: missing from current results")
            continue
        for chaos, base_modes in base_scenarios.items():
            cur_modes = cur_scenarios.get(chaos)
            if cur_modes is None:
                failures.append(f"{tkey}/{chaos}: missing from current")
                continue
            for mode, base in base_modes.items():
                cur = cur_modes.get(mode)
                if cur is None:
                    failures.append(f"{tkey}/{chaos}/{mode}: missing")
                    continue
                problems = []
                for key in ("tail_violation", "q1_miss"):
                    drift = abs(cur[key] - base[key])
                    if drift > tolerance:
                        problems.append(
                            f"{key} {cur[key]:.4f} vs baseline "
                            f"{base[key]:.4f} (drift {drift:.4f} > "
                            f"{tolerance:.4f})")
                status = "FAIL" if problems else "ok"
                print(f"{tkey:<8} {chaos:<8} {mode:<11} "
                      f"{base['tail_violation']:>9.3f} "
                      f"{cur['tail_violation']:>9.3f} "
                      f"{base['q1_miss']:>9.4f} {cur['q1_miss']:>9.4f}  "
                      f"{status}")
                failures.extend(f"{tkey}/{chaos}/{mode}: {p}"
                                for p in problems)
            # Structural checks on the current numbers alone.
            static = cur_modes.get("static")
            ctrl = cur_modes.get("controller")
            if static is None or ctrl is None:
                continue
            if ctrl["tail_violation"] > static["tail_violation"] + 1e-9:
                failures.append(
                    f"{tkey}/{chaos}: controller tail_violation "
                    f"{ctrl['tail_violation']:.4f} exceeds static "
                    f"{static['tail_violation']:.4f}")
        # Defence check at the scenario with the most static violations.
        worst = max(cur_scenarios, key=lambda c: cur_scenarios[c]
                    .get("static", {}).get("tail_violation", 0.0))
        static = cur_scenarios[worst].get("static", {})
        ctrl = cur_scenarios[worst].get("controller", {})
        if static.get("tail_violation", 0.0) < 0.5:
            failures.append(
                f"{tkey}/{worst}: static tail_violation "
                f"{static.get('tail_violation', 0.0):.4f} < 0.5 — the "
                f"chaos scenario no longer stresses the static plan")
        if ctrl.get("tail_violation", 1.0) > 0.25:
            failures.append(
                f"{tkey}/{worst}: controller tail_violation "
                f"{ctrl.get('tail_violation', 1.0):.4f} > 0.25 — the "
                f"control plane failed to defend the Q1 guarantee")
    return failures


def check_stream(baseline, current, tolerance, max_overhead):
    failures = []
    cur_obs = current.get("observability", {})
    base_obs = baseline.get("observability", {})
    instrumented = cur_obs.get("traced", False) or cur_obs.get("metrics",
                                                               False)
    base_norm = baseline["normalized"]
    cur_norm = current["normalized"]
    allowed = (1.0 - tolerance) * base_norm
    # The baseline normalized throughput only gates a like-for-like run: an
    # instrumented pass against an uninstrumented baseline (or vice versa)
    # measures the tracer, not a regression — those runs are gated on
    # obs_overhead below instead.
    comparable = instrumented == (base_obs.get("traced", False) or
                                  base_obs.get("metrics", False))
    if comparable and cur_norm < allowed:
        failures.append(
            f"normalized {cur_norm:.4f} < {allowed:.4f} "
            f"(>{tolerance:.0%} regression from {base_norm:.4f})")
    if instrumented:
        # Observability gates, on the current run alone.  The overhead
        # ratio only exists when --overhead ran a reference pass.
        untraced = cur_obs.get("untraced_events_per_sec", 0)
        overhead = cur_obs.get("obs_overhead", 0.0)
        if untraced > 0 and overhead > max_overhead:
            failures.append(
                f"obs_overhead {overhead:.4f} > {max_overhead:.2f} — "
                f"tracing+metrics cost more than "
                f"{max_overhead:.0%} of untraced events/sec")
        if cur_obs.get("trace_dropped", 0) != 0:
            failures.append(
                f"trace_dropped {cur_obs['trace_dropped']} != 0 — spans "
                f"were silently lost (streaming mode must never drop)")
    if not current.get("rss_ok", False):
        failures.append(
            f"peak_rss_bytes {current.get('peak_rss_bytes', 0)} exceeds "
            f"ceiling {current.get('rss_ceiling_bytes', 0)} — the bounded-"
            f"memory streaming contract is broken")
    if current["completions"] != current["requests"]:
        failures.append(
            f"completions {current['completions']} != requests "
            f"{current['requests']}")
    print(f"{'metric':<24} {'baseline':>14} {'current':>14}")
    for key in ("normalized", "events_per_sec", "calibration_ops_per_sec",
                "wall_sec", "peak_rss_bytes", "requests", "windows"):
        print(f"{key:<24} {baseline.get(key, 0):>14} {current.get(key, 0):>14}")
    for key in ("request_digest", "completion_digest"):
        print(f"{key:<24} {baseline.get(key, ''):>14} "
              f"{current.get(key, ''):>14}  (informational)")
    if cur_obs:
        print(f"{'traced/metrics':<24} {'':>14} "
              f"{str(cur_obs.get('traced', False)) + '/' + str(cur_obs.get('metrics', False)):>14}")
        for key in ("events_observed", "trace_observed", "trace_dropped",
                    "obs_overhead", "untraced_events_per_sec"):
            print(f"{key:<24} {base_obs.get(key, 0):>14} "
                  f"{cur_obs.get(key, 0):>14}")
        print(f"{'event_digest':<24} {base_obs.get('event_digest', ''):>14} "
              f"{cur_obs.get('event_digest', ''):>14}  (informational)")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument("--online", action="store_true",
                        help="gate BENCH_online.json (normalized decisions/s)"
                             " instead of BENCH_micro.json (speedups)")
    parser.add_argument("--chaos", action="store_true",
                        help="gate BENCH_control_plane.json (Q1-guarantee "
                             "violations, deterministic absolute tolerance)")
    parser.add_argument("--stream", action="store_true",
                        help="gate BENCH_stream.json (normalized events/s "
                             "from bench/giant_run plus the RSS ceiling)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed regression: fractional for micro/"
                             "online (default 0.25 / 0.50), absolute "
                             "metric drift for --chaos (default 0.02)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="micro: hard speedup floor at 256 flows")
    parser.add_argument("--min-normalized", type=float, default=0.02,
                        help="online: hard normalized-throughput floor")
    parser.add_argument("--max-overhead", type=float, default=0.20,
                        help="stream: ceiling on observability.obs_overhead "
                             "for instrumented giant_run manifests (the "
                             "<= 20%% events/sec tracing budget)")
    args = parser.parse_args()
    if sum((args.online, args.chaos, args.stream)) > 1:
        parser.error("--online, --chaos and --stream are mutually exclusive")
    if args.tolerance is None:
        args.tolerance = (0.02 if args.chaos else
                          0.50 if args.online else 0.25)

    mode = ("online" if args.online else "chaos" if args.chaos else
            "stream" if args.stream else "micro")
    baseline = load(args.baseline, mode, is_baseline=True)
    current = load(args.current, mode, is_baseline=False)

    if args.chaos:
        failures = check_chaos(baseline, current, args.tolerance)
        if failures:
            print("\nperf-smoke FAILED:", file=sys.stderr)
            for f_ in failures:
                print(f"  {f_}", file=sys.stderr)
            return 1
        print("\nperf-smoke passed")
        return 0

    if args.stream:
        failures = check_stream(baseline, current, args.tolerance,
                                args.max_overhead)
        if failures:
            print("\nperf-smoke FAILED:", file=sys.stderr)
            for f_ in failures:
                print(f"  {f_}", file=sys.stderr)
            return 1
        print("\nperf-smoke passed")
        return 0

    if args.online:
        failures = check_online(baseline, current, args.tolerance,
                                args.min_normalized)
        if failures:
            print("\nperf-smoke FAILED:", file=sys.stderr)
            for f_ in failures:
                print(f"  {f_}", file=sys.stderr)
            return 1
        print("\nperf-smoke passed")
        return 0

    failures = []
    print(f"{'backend':<8} {'flows':>13} {'base':>8} {'now':>8} "
          f"{'heap ops/s':>14}  status")
    for backend, base_cells in baseline["schedulers"].items():
        cur_cells = current["schedulers"].get(backend)
        if cur_cells is None:
            failures.append(f"{backend}: missing from current results")
            continue
        # A measured cell the baseline has never seen cannot be gated: fail
        # loudly instead of silently skipping it (or KeyError-ing on the
        # old schema), so adding a bench point forces a baseline regen.
        for cell in cur_cells:
            if cell not in base_cells:
                failures.append(
                    f"{backend}/{cell}: measured but missing from the "
                    f"baseline — regenerate bench/BENCH_micro.baseline.json "
                    f"(see README 'Perf baseline')")
        for cell, base in base_cells.items():
            cur = cur_cells.get(cell)
            if cur is None:
                failures.append(f"{backend}/{cell}: missing from current")
                continue
            base_speedup = base["speedup"]
            cur_speedup = cur["speedup"]
            cur_ops = cur["heap_ops_per_sec"]
            allowed = (1.0 - args.tolerance) * base_speedup
            gated = base_speedup >= 1.0
            problems = []
            if gated and cur_speedup < allowed:
                problems.append(
                    f"speedup {cur_speedup:.2f} < {allowed:.2f} "
                    f"(>{args.tolerance:.0%} regression from "
                    f"{base_speedup:.2f})")
            if cell == FLOOR_KEY and cur_speedup < args.min_speedup:
                problems.append(
                    f"speedup {cur_speedup:.2f} below the "
                    f"{args.min_speedup:.1f}x floor at 256 flows")
            floor_gated = gated or cell == FLOOR_KEY
            status = ("FAIL" if problems else
                      "ok" if floor_gated else "info")
            print(f"{backend:<8} {cell:>13} {base_speedup:>7.2f}x "
                  f"{cur_speedup:>7.2f}x {cur_ops:>14.0f}  "
                  f"{status}")
            for p in problems:
                failures.append(f"{backend}/{cell}: {p}")

    base_sim = baseline.get("simulator", {})
    cur_sim = current.get("simulator", {})
    for key in base_sim:
        if key in cur_sim:
            print(f"simulator {key}: {cur_sim[key]:.0f} events/s "
                  f"(baseline machine: {base_sim[key]:.0f}; informational)")

    if failures:
        print("\nperf-smoke FAILED:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print("\nperf-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
