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
[ "$status" -eq 0 ] && echo "sim-identical: 25 runs identical to $parent"
exit "$status"
