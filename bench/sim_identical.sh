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
# both trees.  The same byte check covers the only runs of the parallel
# scavenger with more than one worker, which no perf workload makes:
# the quick strict E10 table and a four-seed gc fault campaign.  And it
# covers explorer executions on recycled heap memory beyond the perf
# workload's seeded runs: a quick DPOR exploration with its statistics
# (every re-execution replays a prefix), and a four-seed exploration of
# a broken configuration, whose counterexamples are shrunk by replay.
# It covers two cluster runs whose replica fingerprints the converged
# perf workload never prints: a deliberately divergent replica and a
# crash that tears the victim's newest checkpoint.  It covers E18's own
# table (`bench e18-gc --quick`): its pause distribution and its
# collector line — cycles, slices, forced completions, reclaimed words
# and free-list reuse — which the perf workload only digests.  Finally
# it covers the work-stealing scheduler, which no perf workload runs:
# E16's quick table (`bench e16-steal --quick`), a twenty-seed stealing
# exploration, and four seeds of the broken unlocked-steal configuration
# with their shrunk counterexamples.
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

# Print the k>1 scavenger runs, each run's exit status after its output.
parallel_runs() {
  DUNE_CACHE=disabled dune build --root . -j 2 --display quiet \
    ./bin/mst.exe ./bench/main.exe 1>&2
  rc=0
  ./_build/default/bench/main.exe parallel-scavenge --quick \
    --sanitize=strict || rc=$?
  echo "exit $rc"
  rc=0
  ./_build/default/bin/mst.exe faults --campaign=gc --seeds=4 --quick || rc=$?
  echo "exit $rc"
}
echo "sim-identical: parallel scavenges" >&2
(cd "$tmp/parent" && parallel_runs) >"$tmp/a.parallel"
parallel_runs >"$tmp/b.parallel"

# Print the explorer runs, each run's exit status after its output.  The
# counterexample dumps go to the same path for both trees, since stdout
# names them.
explore_runs() {
  DUNE_CACHE=disabled dune build --root . -j 2 --display quiet ./bin/mst.exe 1>&2
  rc=0
  ./_build/default/bin/mst.exe explore --config=ms --dpor --stats --quick \
    --budget=12 || rc=$?
  echo "exit $rc"
  rc=0
  ./_build/default/bin/mst.exe explore --config=ctx-unbracketed --seeds=4 \
    --quick --expect-violation --dump="$tmp/ctr" || rc=$?
  echo "exit $rc"
}
echo "sim-identical: explorer runs" >&2
(cd "$tmp/parent" && explore_runs) >"$tmp/a.explore"
explore_runs >"$tmp/b.explore"

# Print the cluster runs, each run's exit status after its output.
cluster_runs() {
  DUNE_CACHE=disabled dune build --root . -j 2 --display quiet ./bin/mst.exe 1>&2
  rc=0
  ./_build/default/bin/mst.exe cluster --requests=12 --skip-lsn=3 \
    --expect-divergence || rc=$?
  echo "exit $rc"
  rc=0
  ./_build/default/bin/mst.exe cluster --requests=24 --crash-seed=5 \
    --scenario=torn-checkpoint --expect-rejoin || rc=$?
  echo "exit $rc"
}
echo "sim-identical: cluster runs" >&2
(cd "$tmp/parent" && cluster_runs) >"$tmp/a.cluster"
cluster_runs >"$tmp/b.cluster"

# Print E18's quick table, then its exit status.  A quick run writes no
# BENCH_e18_gc.json.
e18_run() {
  DUNE_CACHE=disabled dune build --root . -j 2 --display quiet ./bench/main.exe 1>&2
  rc=0
  ./_build/default/bench/main.exe e18-gc --quick || rc=$?
  echo "exit $rc"
}
echo "sim-identical: E18 table" >&2
(cd "$tmp/parent" && e18_run) >"$tmp/a.e18"
e18_run >"$tmp/b.e18"

# Print the stealing-scheduler runs, each run's exit status after its
# output.  The counterexample dumps go to the same path for both trees.
steal_runs() {
  DUNE_CACHE=disabled dune build --root . -j 2 --display quiet \
    ./bin/mst.exe ./bench/main.exe 1>&2
  rc=0
  ./_build/default/bench/main.exe e16-steal --quick || rc=$?
  echo "exit $rc"
  rc=0
  ./_build/default/bin/mst.exe explore --config=stealing --seeds=20 \
    --quick || rc=$?
  echo "exit $rc"
  rc=0
  ./_build/default/bin/mst.exe explore --config=steal-unlocked --seeds=4 \
    --quick --expect-violation --dump="$tmp/steal" || rc=$?
  echo "exit $rc"
}
echo "sim-identical: stealing runs" >&2
(cd "$tmp/parent" && steal_runs) >"$tmp/a.steal"
steal_runs >"$tmp/b.steal"

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
if ! cmp -s "$tmp/a.parallel" "$tmp/b.parallel"; then
  echo "FAIL: k>1 scavenger output differs against $parent:" >&2
  diff "$tmp/a.parallel" "$tmp/b.parallel" | head -20 >&2 || true
  status=1
fi
if ! cmp -s "$tmp/a.explore" "$tmp/b.explore"; then
  echo "FAIL: explorer output differs against $parent:" >&2
  diff "$tmp/a.explore" "$tmp/b.explore" | head -20 >&2 || true
  status=1
fi
if ! cmp -s "$tmp/a.cluster" "$tmp/b.cluster"; then
  echo "FAIL: cluster output differs against $parent:" >&2
  diff "$tmp/a.cluster" "$tmp/b.cluster" | head -20 >&2 || true
  status=1
fi
if ! cmp -s "$tmp/a.e18" "$tmp/b.e18"; then
  echo "FAIL: E18 table differs against $parent:" >&2
  diff "$tmp/a.e18" "$tmp/b.e18" | head -20 >&2 || true
  status=1
fi
if ! cmp -s "$tmp/a.steal" "$tmp/b.steal"; then
  echo "FAIL: stealing-scheduler output differs against $parent:" >&2
  diff "$tmp/a.steal" "$tmp/b.steal" | head -20 >&2 || true
  status=1
fi
[ "$status" -eq 0 ] &&
  echo "sim-identical: 25 runs, 2 trace dumps, 2 k>1 scavenger runs, 2 explorer runs, 2 cluster runs, the E18 table and 3 stealing runs identical to $parent"
exit "$status"
