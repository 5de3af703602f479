# Shared body of the scripts/bench_*.sh distillers, sourced by each with
# its arguments: [--check] [build-dir (default: build)]. --check writes
# the distilled document to a temp file and diffs (diff -u) it against
# the committed results file, failing on any difference, instead of
# overwriting that file.

CHECK=0
if [ "${1:-}" = "--check" ]; then
  CHECK=1
  shift
fi
BUILD_DIR="${1:-build}"

# run_bench <target> <results-file> < distiller.py
#
# Builds and runs bench/<target> with --json, validates the records, and
# runs the Python distiller on stdin as `python3 - <records> <output>`.
run_bench() {
  local target="$1" results="$2"
  cmake -B "$BUILD_DIR" -S . < /dev/null
  cmake --build "$BUILD_DIR" -j --target "$target" < /dev/null

  RECORDS="$(mktemp --suffix=.metrics.json)"
  DISTILLED="$(mktemp --suffix=.json)"
  trap 'rm -f "$RECORDS" "$DISTILLED"' EXIT

  "$BUILD_DIR/bench/$target" --json "$RECORDS" < /dev/null > /dev/null
  python3 scripts/validate_metrics.py "$RECORDS"
  python3 - "$RECORDS" "$DISTILLED"

  if [ "$CHECK" = 1 ]; then
    diff -u "$results" "$DISTILLED"
    echo "$results is up to date"
  else
    cp "$DISTILLED" "$results"
    echo "$results updated"
  fi
}
