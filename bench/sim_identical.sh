#!/bin/sh
# Prove the working tree simulation-identical to a parent revision, from
# the root of a checkout:
#
#   sh bench/sim_identical.sh HEAD~1        (or: make sim-identical PARENT=HEAD~1)
#
# Exports PARENT with `git archive` into a temporary directory, then runs
# every perf workload at seeds 0-4 for one timed pass (`--seconds 1`) on
# both trees.  Fails when `run.sh --compare` reports any simulated row
# CHANGED, or when any (workload, seed) pair has a different sim_digest.
# Host rows are printed but not judged: one pass cannot resolve them.
#
# Also fails when the sanitizer's rendered trace ring differs: two
# `mst eval --trace-dump` runs (strict on the stealing scheduler, and
# report mode with the major collector) must print the same bytes on
# both trees.
set -eu
parent=${1:?usage: sh bench/sim_identical.sh PARENT-REVISION}
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent" | tar -x -C "$tmp/parent"

for w in table2 serve gc-churn cluster explore; do
  for s in 0 1 2 3 4; do
    echo "sim-identical: $w seed $s" >&2
    (cd "$tmp/parent" &&
      sh bench/perf/run.sh --workload "$w" --seed "$s" --seconds 1 \
        --json "$tmp/a.jsonl" >/dev/null)
    sh bench/perf/run.sh --workload "$w" --seed "$s" --seconds 1 \
      --json "$tmp/b.jsonl" >/dev/null
  done
done

# Print both trace dumps, each run's exit status after its output.
trace_dumps() {
  DUNE_CACHE=disabled dune build --root . -j 2 --display quiet ./bin/mst.exe 1>&2
  rc=0
  ./_build/default/bin/mst.exe eval -p 5 --state busy --scheduler=stealing \
    --sanitize=strict --trace-dump 4096 \
    "| s | s := 0. 1 to: 200 do: [:i | s := s + i]. s" || rc=$?
  echo "exit $rc"
  rc=0
  ./_build/default/bin/mst.exe eval -p 4 --state busy --major \
    --sanitize=report --trace-dump 4096 \
    '| keep | keep := Array new: 64. 1 to: 4000 do: [:i | keep at: i \\ 64 + 1 put: (Array new: 16)]. 6 factorial' || rc=$?
  echo "exit $rc"
}
echo "sim-identical: trace dumps" >&2
(cd "$tmp/parent" && trace_dumps) >"$tmp/a.trace"
trace_dumps >"$tmp/b.trace"

# one "workload seed digest" line per run, in run order
digests() {
  sed -n 's/^{"workload": "\([^"]*\)", "seed": \([0-9]*\),.*"sim_digest": "\([0-9a-f]*\)".*/\1 \2 \3/p' "$1"
}
digests "$tmp/a.jsonl" >"$tmp/a.digests"
digests "$tmp/b.jsonl" >"$tmp/b.digests"

status=0
sh bench/perf/run.sh --compare "$tmp/a.jsonl" -- "$tmp/b.jsonl" >"$tmp/compare.txt" || true
cat "$tmp/compare.txt"
if grep -E '^[^ ]+ +[^ ]+ +sim +.*CHANGED$' "$tmp/compare.txt" >/dev/null; then
  echo "FAIL: a simulated row changed against $parent" >&2
  status=1
fi
if [ "$(wc -l <"$tmp/a.digests")" -ne 25 ] || ! cmp -s "$tmp/a.digests" "$tmp/b.digests"; then
  echo "FAIL: per-(workload, seed) sim_digest differs against $parent:" >&2
  diff "$tmp/a.digests" "$tmp/b.digests" >&2 || true
  status=1
fi
if ! cmp -s "$tmp/a.trace" "$tmp/b.trace"; then
  echo "FAIL: --trace-dump output differs against $parent:" >&2
  diff "$tmp/a.trace" "$tmp/b.trace" | head -20 >&2 || true
  status=1
fi
[ "$status" -eq 0 ] &&
  echo "sim-identical: 25 runs and 2 trace dumps identical to $parent"
exit "$status"
