#!/bin/sh
# The table of judged command-line runs: every mst and bench invocation
# the build checks, each with the exit status it must give.
#
#   sh runs.sh MST BENCH TRANSCRIPT
#
# Runs every entry, in order, inside a temporary directory that holds
# copies of the *.st fixtures beside this script, so dumps land there
# under the same relative names whichever binaries run; removes it at
# the end.  Writes to TRANSCRIPT a "$ PROGRAM ARGS" line per entry, the
# run's stdout and "exit N"; a --trace-dump ring enters it as one line
# with its line count and cksum, not line by line.  Prints "FAIL:" and
# the entry's stderr, and exits 1, if any status (or a refusal's error:
# line, or an unparsable value's usage message) differs from the one
# expected.  `dune runtest` runs it against the built binaries, prints
# what it printed, then diffs TRANSCRIPT against the committed
# runs.expected (see dune).

abs() { case $1 in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
mst=$(abs "${1:?usage: sh runs.sh MST BENCH TRANSCRIPT}")
bench=$(abs "${2:?usage: sh runs.sh MST BENCH TRANSCRIPT}")
transcript=$(abs "${3:?usage: sh runs.sh MST BENCH TRANSCRIPT}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# cluster runs put their checkpoints in a temporary directory they keep
TMPDIR=$tmp
export TMPDIR
mkdir "$tmp/work"
cp "$(dirname "$0")"/*.st "$tmp/work"
# a directory where the unreadable-input checks below name a file
mkdir "$tmp/work/bin"
cd "$tmp/work" || exit 1
out=$tmp/out err=$tmp/err
: >"$transcript"
failures=0

fail() {
  echo "FAIL: $*"
  sed 's/^/  | /' "$err"
  failures=$((failures + 1))
}

# expect STATUS PROGRAM ARGS...: PROGRAM (mst or bench) with ARGS must
# exit with STATUS.  Its stdout goes to the transcript.
expect() {
  want=$1 prog=$2
  shift 2
  case $prog in
    mst) bin=$mst ;;
    bench) bin=$bench ;;
  esac
  printf '$ %s %s\n' "$prog" "$*" >>"$transcript"
  "$bin" "$@" >"$out" 2>"$err"
  got=$?
  grep -v '^  \[vp ' "$out" >>"$transcript"
  if grep -q '^  \[vp ' "$out"; then
    echo "  (ring: $(grep -c '^  \[vp ' "$out") lines, cksum" \
      "$(grep '^  \[vp ' "$out" | cksum))" >>"$transcript"
  fi
  echo "exit $got" >>"$transcript"
  [ "$got" -eq "$want" ] || fail "$prog $* exited $got, expected $want"
}

# refused PROGRAM ARGS...: exit 2, saying why on a line that starts
# "error: "
refused() {
  expect 2 "$@"
  grep -q '^error: ' "$err" || fail "$* printed no error: line"
}

# unparsed PROGRAM ARGS... --OPTION=VALUE: exit 2 with Cmdliner's usage
# message naming the VALUE it cannot parse
unparsed() {
  expect 2 "$@"
  eval "last=\${$#}"
  grep -q "invalid value '${last#*=}'" "$err" ||
    fail "$* printed no usage message"
}

# --- the exit-status contract in the header of bin/mst.ml: 0 on
# success, 1 when a run fails, 2 for a refused argument or input ---

expect 0 mst eval "3 + 4"
expect 0 mst run ok.st
expect 0 mst disasm Object yourself
expect 0 mst browse Object

# a run that fails: doesNotUnderstand under eval and under run
expect 1 mst eval "3 foo"
expect 1 mst run dnu.st
# a conditional on a non-Boolean, and an allocation old space cannot hold
expect 1 mst eval "3 ifTrue: [1] ifFalse: [2]"
expect 1 mst eval "Array new: 3000000"

# source the compiler refuses
refused mst eval "3 +"
refused mst eval "16r"
refused mst run bad_method.st
refused mst run malformed.st

# counts that would run nothing
refused mst eval -p 0 "3 + 4"
refused mst run -p 0 ok.st
refused mst serve --sessions 0
refused mst serve --workers 0
refused mst serve --requests 0

# negative bounds, delays and caps, and a major-slice budget of no
# cycles, which would otherwise be clamped or silently run as "off"
refused mst eval --major --major-budget=-5 "3 + 4"
refused mst faults --quick --seeds=1 --watchdog=-5
refused mst faults --quick --seeds=1 --backoff=-3
refused mst serve --think-ms=-5
refused mst serve --interval-ms=-5
refused mst serve --admit=-1
refused mst eval --trace-dump=-3 "3 + 4"
refused mst explore --quick --seeds=2 --max-preemptions=-1
refused mst explore --quick --seeds=1 --shrink-budget=-4

# names the image does not define
refused mst disasm NoSuchClass yourself
refused mst disasm Object noSuchSelector
refused mst decompile Object noSuchSelector
refused mst browse NoSuchClass

# values Cmdliner cannot parse, and a section bench does not know
unparsed mst explore --config=nope
unparsed mst faults --campaign=nope
expect 2 bench no-such-section

# --- E10: a quick run with the strict sanitizer: every parallel
# collection is claim/chunk-checked and followed by a full heap
# verification, so a protocol regression fails the build rather than
# skewing the numbers.  No perf workload runs the scavenger with more
# than one worker; this table and the gc campaign below are its only
# k>1 runs. ---

expect 0 bench parallel-scavenge --quick --sanitize=strict

# --- E12: the simulated cycles per bytecode of a jump, a send-heavy and
# an allocation-heavy loop on one MS processor, the interpreter's cost
# model in three numbers. ---

expect 0 bench micro

# --- E14: schedule exploration with a small seed budget: the published
# MS configuration must explore clean under the strict sanitizer, and
# each deliberately broken configuration must yield a shrunk
# counterexample whose replayed trace reproduces the failure.  A hundred
# seeds of MS re-execute on recycled heap memory, every execution
# booting its VM from the cached kernel image. ---

expect 0 mst explore --config=ms --seeds=8 --quick
expect 0 mst explore --config=ms --seeds=100
expect 0 mst explore --config=bs-unlocked --seeds=4 --quick \
  --expect-violation --dump mst-explore-unlocked
expect 0 mst explore --config=ctx-unbracketed --seeds=4 --quick \
  --expect-violation --dump mst-explore-ctx

# --- E15: seeded fault campaigns with the strict sanitizer: every crash
# must be survived by failover, every degraded collection must verify
# (the gc campaign's k>1 scavenges), and the crash, lock and mixed
# campaigns' verdicts show failover, the spin watchdog's deadlock
# reports and the recovery overheads.  The deadlock hunt must detect a
# crashed lock holder via the watchdog and shrink its fault plan to a
# file that replays to the identical report; a zero-seed campaign, an
# unreadable plan path, the plan without its trailer or without its
# first fault, and the plan given to explore as a decision trace are
# refused. ---

expect 0 mst faults --campaign=crash --seeds=4 --quick
expect 0 mst faults --campaign=gc --seeds=4 --quick
expect 0 mst faults --campaign=crash --seeds=8 --quick
expect 0 mst faults --campaign=lock --seeds=8 --quick
expect 0 mst faults --campaign=mixed --seeds=8 --quick
expect 0 mst faults --deadlock --quick --seeds=12 --dump mst-deadlock.plan
expect 0 mst faults --replay=mst-deadlock.plan --expect-deadlock --quick
sed '$d' mst-deadlock.plan >mst-cut.plan
refused mst faults --quick --replay=mst-cut.plan
sed '2d' mst-deadlock.plan >mst-dropped.plan
refused mst faults --quick --replay=mst-dropped.plan
refused mst explore --quick --replay=mst-deadlock.plan
refused mst faults --quick --seeds=0
refused mst faults --quick --replay=bin

# --- E16 work stealing, which no perf workload runs: a strict-sanitized
# stealing run on a busy workload, its strict trace ring, E16's quick
# table, 20- and 50-seed differential explorations against the locked
# scheduler's observables, and the deliberately unguarded steal
# protocol that the sanitizer must catch on every seed. ---

expect 0 mst eval -p 4 --state busy --scheduler=stealing --sanitize=strict \
  "| s | s := 0. 1 to: 200 do: [:i | s := s + i]. s"
expect 0 mst eval -p 5 --state busy --scheduler=stealing --sanitize=strict \
  --trace-dump 4096 "| s | s := 0. 1 to: 200 do: [:i | s := s + i]. s"
expect 0 bench e16-steal --quick
expect 0 mst explore --config=stealing --seeds=20 --quick
expect 0 mst explore --config=stealing --seeds=50 --quick
expect 0 mst explore --config=steal-unlocked --seeds=4 --quick \
  --expect-violation --dump mst-explore-steal

# --- E17 image server: a strict-sanitized closed-loop serve on the
# calendar engine, run differentially so the scan engine must agree on
# every request-level observable, E17's quick table (both engines'
# events, p50 latencies and the calendar's parks), plus a
# calendar-engine schedule exploration checked against the scan
# engine's observables on every seed. ---

expect 0 mst serve -p 8 --sessions 4 --workers 2 --requests 2 \
  --think-ms 100 --sanitize=strict --differential
expect 0 bench e17-server --quick
expect 0 mst explore --config=calendar --seeds=8 --quick

# --- E20 systematic exploration (strict sanitizer, bounded workload):
# the published configuration must stay clean under a DPOR budget with
# pruning stats (every re-execution replays a prefix), both deliberately
# broken configurations must be caught with no seed involved, and
# zero-execution invocations (--seeds 0, --budget 0, -p 0) are refused
# instead of reporting vacuous success, as are unreadable input paths
# (a directory as trace or class file). ---

expect 0 mst explore --config=ms --dpor --stats --quick --budget=12
expect 0 mst explore --config=ctx-unbracketed --dpor --quick --budget=4 \
  --expect-violation --dump mst-dpor-ctx
expect 0 mst explore --config=steal-unlocked --dpor --quick --budget=4 \
  --expect-violation --dump mst-dpor-steal
refused mst explore --quick --seeds=0
refused mst explore --quick --dpor --budget=0
refused mst explore --quick -p 0
refused mst explore --quick --replay=bin
refused mst run bin

# --- E18 incremental old-space collection: a strict-sanitized
# garbage-heavy run with the collector on (every cycle completion
# re-verifies the whole heap), its trace ring in report mode, E18's
# quick table (pause distribution, whose p95 major slice must respect
# the budget, and the collector line the perf workload only digests),
# a differential exploration against a collector-free reference, and
# the barrier-disabled configuration the sanitizer must catch on every
# seed. ---

expect 0 mst eval -p 4 --state busy --major --sanitize=strict \
  '| keep | keep := Array new: 64. 1 to: 4000 do: [:i | keep at: i \\ 64 + 1 put: (Array new: 16)]. 6 factorial'
expect 0 mst eval -p 4 --state busy --major --sanitize=report \
  --trace-dump 4096 \
  '| keep | keep := Array new: 64. 1 to: 4000 do: [:i | keep at: i \\ 64 + 1 put: (Array new: 16)]. 6 factorial'
expect 0 bench e18-gc --quick
expect 0 mst explore --config=major --seeds=4 --quick
expect 0 mst explore --config=major-nobarrier --seeds=4 --quick \
  --expect-violation --dump mst-explore-major

# --- E19 replicated image cluster: three replicas over a durable
# command log with one injected crash — the victim must rejoin from a
# checkpoint and reproduce the reference fingerprint, also when the
# crash tears its newest checkpoint (it must fall back past the damaged
# file), when it dies again mid-replay and when the same replica
# crashes twice; the deliberately-divergent replica (one dropped log
# entry) must be caught by the detector; the replica fault campaign
# (torn checkpoint, crash mid-replay, double crash) must record zero
# incorrect outcomes.  The converged perf workload prints none of these
# fingerprints. ---

expect 0 mst cluster --requests=24 --crash-seed=5 --expect-rejoin
expect 0 mst cluster --requests=24 --crash-seed=5 \
  --scenario=torn-checkpoint --expect-rejoin
expect 0 mst cluster --requests=24 --crash-seed=5 \
  --scenario=crash-mid-replay --expect-rejoin
expect 0 mst cluster --requests=24 --crash-seed=5 \
  --scenario=double-crash --expect-rejoin
expect 0 mst cluster --requests=12 --skip-lsn=3 --expect-divergence
expect 0 mst faults --campaign=replica --seeds=2 --quick

if [ "$failures" -gt 0 ]; then
  echo "$failures check(s) of the run table failed"
  exit 1
fi
