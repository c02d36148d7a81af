#!/bin/sh
# Build the perf benchmark from source, then run it with the given
# arguments, from the root of a checkout:
#
#   sh bench/perf/run.sh --workload table2 --seed 0 --seconds 12 --trace 0
#
# Build output goes to standard error, so the last line of standard
# output is the benchmark's JSON result.  The shared dune cache is off so
# that the build reads and writes inside the checkout only.
set -eu
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . -j 2 --display quiet ./bench/perf/main.exe 1>&2
exec ./_build/default/bench/perf/main.exe "$@"
