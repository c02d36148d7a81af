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
# Also fails unless every entry of the table of judged command-line runs
# (test/cli/runs.sh) that both trees hold prints the same on both.
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

# Each tree's run table against its own binaries (a parent older than
# the table runs this tree's).  Every transcript line carries a run's
# stdout or exit status, so comparing them judges both; whether a status
# is the expected one is `dune runtest`'s check, and the parent's
# binaries need not pass it.
run_table() {
  (cd "$1" &&
    DUNE_CACHE=disabled dune build --root . -j 2 --display quiet \
      ./bin/mst.exe ./bench/main.exe 1>&2)
  if [ ! -f "$1/test/cli/runs.sh" ]; then
    mkdir -p "$1/test/cli"
    cp test/cli/runs.sh test/cli/*.st "$1/test/cli"
  fi
  sh "$1/test/cli/runs.sh" "$1/_build/default/bin/mst.exe" \
    "$1/_build/default/bench/main.exe" "$2" >/dev/null || true
}
echo "sim-identical: run table" >&2
run_table "$tmp/parent" "$tmp/a.runs"
run_table "$PWD" "$tmp/b.runs"

# The entries both transcripts hold, in this tree's order, into
# a.shared and b.shared; an entry is its "$ " line (with its occurrence
# count) and the lines up to the next.  Lists the entries only one
# table holds, which a change that adds or edits an entry makes.
awk -v a="$tmp/a.shared" -v b="$tmp/b.shared" -v count="$tmp/shared" '
  function name(k, p) { split(k, p, SUBSEP); return p[1] }
  FNR == 1 { f++ }
  /^\$ / {
    k = $0 SUBSEP (++seen[f, $0])
    order[f, ++n[f]] = k
    first[f, k] = FNR
  }
  { line[f, FNR] = $0; last[f, k] = FNR }
  END {
    printf "" >a; printf "" >b
    for (i = 1; i <= n[2]; i++) {
      k = order[2, i]
      if (!((1, k) in first)) { print "  only in this tree: " name(k); continue }
      for (j = first[1, k]; j <= last[1, k]; j++) print line[1, j] >a
      for (j = first[2, k]; j <= last[2, k]; j++) print line[2, j] >b
      shared++
    }
    for (i = 1; i <= n[1]; i++)
      if (!((2, order[1, i]) in first)) print "  only in the parent: " name(order[1, i])
    print shared + 0 >count
  }' "$tmp/a.runs" "$tmp/b.runs" >"$tmp/unshared"

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
shared=$(cat "$tmp/shared")
if [ "$shared" -eq 0 ] || ! cmp -s "$tmp/a.shared" "$tmp/b.shared"; then
  echo "FAIL: the run table's transcript differs against $parent:" >&2
  diff "$tmp/a.shared" "$tmp/b.shared" | head -40 >&2 || true
  status=1
fi
if [ -s "$tmp/unshared" ]; then
  echo "sim-identical: run-table entries not compared:" >&2
  cat "$tmp/unshared" >&2
fi
[ "$status" -eq 0 ] &&
  echo "sim-identical: 25 runs and $shared run-table entries identical to $parent"
exit "$status"
