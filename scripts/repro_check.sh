#!/usr/bin/env bash
# Reproduction gate: regenerates every simulated result the repository
# publishes and diffs it against the committed copy. Covers each
# results/<bench>.txt table (bench/<bench> at its defaults) and each
# simulated-time results/BENCH_*.json (scripts/bench_*.sh --check).
# results/micro_simulator.txt and results/BENCH_sim.json hold host
# timings and are not checked. Run from the repository root.
#
# Usage: scripts/repro_check.sh [build-dir]   # default: build
#
# Exits 1 after printing a diff -u for every file that drifted.
set -euo pipefail

BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . > /dev/null
cmake --build "$BUILD_DIR" -j

ACTUAL="$(mktemp)"
trap 'rm -f "$ACTUAL"' EXIT

failed=0
for golden in results/*.txt; do
  name="$(basename "$golden" .txt)"
  [ "$name" = micro_simulator ] && continue
  "$BUILD_DIR/bench/$name" > "$ACTUAL"
  if diff -u "$golden" "$ACTUAL"; then
    echo "$golden is up to date"
  else
    failed=1
  fi
done

for bench in tenant htap dist chaos multinode serve plan; do
  scripts/bench_$bench.sh --check "$BUILD_DIR" || failed=1
done

if [ "$failed" != 0 ]; then
  echo "=== repro check FAILED: see the diffs above ===" >&2
  exit 1
fi
echo "=== repro check passed: every simulated result regenerates ==="
