# Convenience targets; `make check` is what CI runs.

.PHONY: all build test check int-compare-audit export-audit smoke-parallel-scavenge explore-smoke fault-smoke steal-smoke server-smoke dpor-smoke gc-smoke cluster-smoke sim-identical bench bench-quick clean

all: build

build:
	dune build

test:
	dune runtest

# No polymorphic comparison on the engine's per-event path: disassemble
# the native objects of its modules and fail on any call to compare_val's
# entry points or to Stdlib.max/min/compare (see the script's header).
int-compare-audit:
	dune build
	sh bench/int_compare_audit.sh

# The exported surface of lib/: count the top-level vals of its .mli
# files and list each export no other module uses (see the script's
# header).  Reports only; it never fails the build.
export-audit:
	sh bench/export_audit.sh

# A quick E10 run with the strict sanitizer: every parallel collection is
# claim/chunk-checked and followed by a full heap verification, so a
# protocol regression fails the build rather than skewing the numbers.
smoke-parallel-scavenge:
	dune exec bench/main.exe -- parallel-scavenge --quick --sanitize=strict

# Schedule exploration with a small seed budget: the published MS
# configuration must explore clean under the strict sanitizer, and each
# deliberately broken configuration must yield a shrunk counterexample
# whose replayed trace reproduces the failure.
explore-smoke:
	dune exec bin/mst.exe -- explore --config=ms --seeds=8 --quick
	dune exec bin/mst.exe -- explore --config=bs-unlocked --seeds=4 --quick \
	  --expect-violation --dump /tmp/mst-explore-unlocked
	dune exec bin/mst.exe -- explore --config=ctx-unbracketed --seeds=4 --quick \
	  --expect-violation --dump /tmp/mst-explore-ctx

# Seeded fault campaigns with the strict sanitizer: every crash must be
# survived by failover, every degraded collection must verify, the
# deadlock hunt must detect a crashed lock holder via the watchdog and
# shrink its fault plan to a file that replays to the identical report;
# a zero-seed campaign and an unreadable plan path must exit 2.
fault-smoke:
	dune exec bin/mst.exe -- faults --campaign=crash --seeds=4 --quick
	dune exec bin/mst.exe -- faults --campaign=gc --seeds=4 --quick
	dune exec bin/mst.exe -- faults --deadlock --quick --seeds=12 \
	  --dump /tmp/mst-deadlock.plan
	dune exec bin/mst.exe -- faults --replay=/tmp/mst-deadlock.plan \
	  --expect-deadlock --quick
	dune exec bin/mst.exe -- faults --quick --seeds=0 2>/dev/null; \
	  test $$? -eq 2 || { echo "FAIL: faults --seeds 0 must exit 2"; exit 1; }
	dune exec bin/mst.exe -- faults --quick --replay=bin 2>/dev/null; \
	  test $$? -eq 2 || { echo "FAIL: faults --replay=DIR must exit 2"; exit 1; }

# E16 work stealing: a strict-sanitized stealing run on a busy workload,
# a 50-seed differential exploration against the locked scheduler's
# observables, and the deliberately unguarded steal protocol that the
# sanitizer must catch on every seed.
steal-smoke:
	dune exec bin/mst.exe -- eval -p 4 --state busy --scheduler=stealing \
	  --sanitize=strict \
	  "| s | s := 0. 1 to: 200 do: [:i | s := s + i]. s"
	dune exec bin/mst.exe -- explore --config=stealing --seeds=50 --quick
	dune exec bin/mst.exe -- explore --config=steal-unlocked --seeds=4 --quick \
	  --expect-violation --dump /tmp/mst-explore-steal

# E17 image server: a strict-sanitized closed-loop serve on the calendar
# engine, run differentially so the scan engine must agree on every
# request-level observable, plus a calendar-engine schedule exploration
# checked against the scan engine's observables on every seed.
server-smoke:
	dune exec bin/mst.exe -- serve -p 8 --sessions 4 --workers 2 \
	  --requests 2 --think-ms 100 --sanitize=strict --differential
	dune exec bin/mst.exe -- explore --config=calendar --seeds=8 --quick

# E20 systematic exploration (strict sanitizer, bounded workload): the
# published configuration must stay clean under a DPOR budget with
# pruning stats, both deliberately broken configurations must be caught
# with no seed involved, and zero-execution invocations (--seeds 0,
# --budget 0, -p 0) must exit 2 instead of reporting vacuous success, as
# must unreadable input paths (a directory as trace or class file).
dpor-smoke:
	dune exec bin/mst.exe -- explore --config=ms --dpor --stats --quick \
	  --budget=12
	dune exec bin/mst.exe -- explore --config=ctx-unbracketed --dpor --quick \
	  --budget=4 --expect-violation --dump /tmp/mst-dpor-ctx
	dune exec bin/mst.exe -- explore --config=steal-unlocked --dpor --quick \
	  --budget=4 --expect-violation --dump /tmp/mst-dpor-steal
	dune exec bin/mst.exe -- explore --quick --seeds=0 2>/dev/null; \
	  test $$? -eq 2 || { echo "FAIL: --seeds 0 must exit 2"; exit 1; }
	dune exec bin/mst.exe -- explore --quick --dpor --budget=0 2>/dev/null; \
	  test $$? -eq 2 || { echo "FAIL: --dpor --budget 0 must exit 2"; exit 1; }
	dune exec bin/mst.exe -- explore --quick -p 0 2>/dev/null; \
	  test $$? -eq 2 || { echo "FAIL: explore -p 0 must exit 2"; exit 1; }
	dune exec bin/mst.exe -- explore --quick --replay=bin 2>/dev/null; \
	  test $$? -eq 2 || { echo "FAIL: explore --replay=DIR must exit 2"; exit 1; }
	dune exec bin/mst.exe -- run bin 2>/dev/null; \
	  test $$? -eq 2 || { echo "FAIL: run DIR must exit 2"; exit 1; }

# E18 incremental old-space collection: a strict-sanitized garbage-heavy
# run with the collector on (every cycle completion re-verifies the whole
# heap), the pause-distribution bench whose p95 major slice must respect
# the budget, a differential exploration against a collector-free
# reference, and the barrier-disabled configuration the sanitizer must
# catch on every seed.
gc-smoke:
	dune exec bin/mst.exe -- eval -p 4 --state busy --major --sanitize=strict \
	  '| keep | keep := Array new: 64. 1 to: 4000 do: [:i | keep at: i \\ 64 + 1 put: (Array new: 16)]. 6 factorial'
	dune exec bench/main.exe -- e18-gc --quick
	dune exec bin/mst.exe -- explore --config=major --seeds=4 --quick
	dune exec bin/mst.exe -- explore --config=major-nobarrier --seeds=4 --quick \
	  --expect-violation --dump /tmp/mst-explore-major

# E19 replicated image cluster: three replicas over a durable command
# log with one injected crash — the victim must rejoin from a checkpoint
# and reproduce the reference fingerprint; the torn-checkpoint scenario
# must fall back past the damaged file; the deliberately-divergent
# replica (one dropped log entry) must be caught by the detector; the
# replica fault campaign (torn checkpoint, crash mid-replay, double
# crash) must record zero incorrect outcomes.
cluster-smoke:
	dune exec bin/mst.exe -- cluster --requests=24 --crash-seed=5 \
	  --expect-rejoin
	dune exec bin/mst.exe -- cluster --requests=24 --crash-seed=5 \
	  --scenario=torn-checkpoint --expect-rejoin
	dune exec bin/mst.exe -- cluster --requests=12 --skip-lsn=3 \
	  --expect-divergence
	dune exec bin/mst.exe -- faults --campaign=replica --seeds=2 --quick

check:
	dune build
	$(MAKE) int-compare-audit
	dune runtest
	$(MAKE) smoke-parallel-scavenge
	$(MAKE) explore-smoke
	$(MAKE) fault-smoke
	$(MAKE) steal-smoke
	$(MAKE) server-smoke
	$(MAKE) dpor-smoke
	$(MAKE) gc-smoke
	$(MAKE) cluster-smoke
	dune exec bench/main.exe -- no-such-section 2>/dev/null; \
	  test $$? -eq 2 || { echo "FAIL: an unknown bench section must exit 2"; exit 1; }

# Prove the working tree simulation-identical to PARENT (any git
# revision): all five perf workloads at seeds 0-4 on both trees must give
# the same sim_digest and no CHANGED sim row.  A few minutes.
PARENT ?= HEAD
sim-identical:
	sh bench/sim_identical.sh $(PARENT)

# The full reproduction harness (slow); `make bench-quick` for a pass
# with reduced repetitions.
bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --quick

clean:
	dune clean
