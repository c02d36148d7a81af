# Convenience targets; `make check` is what CI runs.

.PHONY: all build test check int-compare-audit export-audit published-check sim-identical bench bench-quick clean

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

# Rerun the sections behind the committed BENCH_*.json files and fail
# on any byte that differs (see the script's header).
published-check:
	sh bench/published_check.sh

# Every judged command-line run (test/cli/runs.sh, with why each proves
# something) is part of `dune runtest`.
check:
	dune build
	$(MAKE) int-compare-audit
	$(MAKE) published-check
	dune runtest

# Prove the working tree simulation-identical to PARENT (any git
# revision): all five perf workloads at seeds 0-4 on both trees must give
# the same sim_digest and no CHANGED sim row, and every entry both trees'
# run tables hold must print the same on both.  A few minutes.
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
