#!/usr/bin/env bash
# Tier-1 verification: the plain build + test matrix from ROADMAP.md, then
# the same test suite under ASan+UBSan so the simulator/scheduler hot paths
# (including the observability hooks) stay sanitizer-clean.  An optional
# third stage runs the concurrency-facing suites (scripts/tsan_filter.txt)
# under ThreadSanitizer — the parallel experiment engine's race gate.
#
#   scripts/tier1.sh            # plain + ASan/UBSan passes
#   scripts/tier1.sh --fast     # plain pass only
#   scripts/tier1.sh --tsan     # plain + ASan/UBSan + TSan passes
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

# Concurrency-facing test suites for the TSan stage, shared with CI's tsan
# job: one alternative per line in scripts/tsan_filter.txt.
tsan_filter=$(grep -Ev '^[[:space:]]*(#|$)' scripts/tsan_filter.txt | paste -sd'|' -)

echo "== tier-1: plain build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$jobs"
ctest --test-dir build --output-on-failure --timeout 120 -j"$jobs"

if [[ "${1:-}" == "--fast" ]]; then
  exit 0
fi

echo "== tier-1: ASan+UBSan build + ctest (tests only) =="
cmake -B build-asan -S . -DQOS_SANITIZE=ON >/dev/null
cmake --build build-asan -j"$jobs"
ctest --test-dir build-asan --output-on-failure --timeout 300 -j"$jobs"

if [[ "${1:-}" == "--tsan" ]]; then
  echo "== tier-1: TSan build + ctest (scripts/tsan_filter.txt suites) =="
  cmake -B build-tsan -S . -DQOS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$jobs"
  ctest --test-dir build-tsan --output-on-failure --timeout 300 -j"$jobs" \
    -R "$tsan_filter"
fi
