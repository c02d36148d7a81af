# Convenience targets; `make check` is what CI runs.

.PHONY: all build test check int-compare-audit export-audit bench bench-quick clean

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

# `dune runtest` diffs the run table's transcript and the BENCH_*.json
# files against their committed copies, and @perf-digests the perf
# workloads' simulated results (test/cli/dune).
check:
	dune build
	$(MAKE) int-compare-audit
	dune runtest
	dune build @perf-digests

# The full reproduction harness (slow); `make bench-quick` for a pass
# with reduced repetitions.
bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --quick

clean:
	dune clean
