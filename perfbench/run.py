#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload sim-steady|sim-bursty|online-admit \
        [--seed 1] [--seconds 10] [--trace 0|1]
    python3 perfbench/run.py --check [--seed 1]

Run from the root of a source checkout.  The first call configures and
builds perfbench/ (which compiles the libraries under src/) into
$CARGO_TARGET_DIR, default .bench_build; later calls rebuild incrementally.
Build output goes to stderr.  The benchmark's own output goes to stdout and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 1 runs the traced variant (per-layer metrics) and writes sampled
spans as Perfetto JSON under the build directory.  --check runs only the
correctness and determinism self-checks of all three workloads.

The default seed is 1.  The exit code is the benchmark's: non-zero when a
check fails, when the build fails, or when the library sources are absent.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sim-steady", "sim-bursty", "online-admit")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir(root):
    target = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target.resolve()
    if target != root and root not in target.parents:
        target = root / ".bench_build"  # never write outside the checkout
    return target / "perfbench"


def source_id(root):
    """Git commit when available, else a digest of the benchmarked sources."""
    if (root / ".git").exists():
        try:
            return subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build(root, out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if not args.check and args.workload is None:
        parser.error("--workload is required unless --check is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {root / 'src'}; run from a full "
             "source checkout")
    binary = build(root, build_dir(root))

    cmd = [str(binary), "--seed", str(args.seed)]
    if args.check:
        cmd.append("--check")
    else:
        cmd += ["--workload", args.workload, "--seconds", f"{args.seconds:g}",
                "--trace", str(args.trace), "--source-id", source_id(root)]
        if args.trace:
            spans = binary.parent / "spans"
            spans.mkdir(exist_ok=True)
            cmd += ["--spans-out",
                    str(spans / f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
