#!/usr/bin/env bash
# Diff the tables each paper bench prints (Tables I/II, Figs. 5-8, the two
# ablations, the beyond-the-paper designs) against the text recorded in
# tests/golden/paper/<bench>.txt, and print the diff of every bench that
# moved, so a failure names the cell. Run by the `paper_tables` ctest.
#
#   tools/check_paper_tables.sh GOLDEN_DIR BENCH...
#
# Each BENCH runs with --benchmark_filter='^$' (its tables only; the
# "Failed to match" line goes to stderr) in the current directory, where
# bench_fig5_quality writes its .ppm previews. To re-record after a
# deliberate change, from the repository root:
#
#   for s in bench/bench_*.cpp; do b=$(basename "$s" .cpp)
#     (cd build && ./"$b" --benchmark_filter='^$') > tests/golden/paper/"$b".txt
#   done
set -euo pipefail

golden="$1"
shift
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
declare -A checked
for bench in "$@"; do
  name="$(basename "$bench")"
  checked[$name]=1
  want="$golden/$name.txt"
  if [ ! -f "$want" ]; then
    echo "FAIL: $name has no recorded tables ($want)" >&2
    fail=1
    continue
  fi
  if ! "$bench" --benchmark_filter='^$' > "$tmp/out.txt" 2> "$tmp/err.txt"; then
    echo "FAIL: $name exited with an error:" >&2
    cat "$tmp/err.txt" >&2
    fail=1
  elif diff -u "$want" "$tmp/out.txt" > "$tmp/diff.txt"; then
    echo "ok: $name"
  else
    echo "FAIL: $name no longer prints its recorded tables:" >&2
    cat "$tmp/diff.txt" >&2
    fail=1
  fi
done

shopt -s nullglob
for want in "$golden"/*.txt; do
  name="$(basename "$want" .txt)"
  if [ -z "${checked[$name]:-}" ]; then
    echo "FAIL: $want records a bench that did not run" >&2
    fail=1
  fi
done
if [ "${#checked[@]}" -eq 0 ]; then
  echo "error: no benches given" >&2
  exit 1
fi
exit "$fail"
