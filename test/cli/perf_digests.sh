#!/bin/sh
# The simulated results of every bench/perf workload, for the committed
# perf_digests.expected:
#
#   sh perf_digests.sh PERF BENCHMARK_JSON
#
# Runs PERF (the built bench/perf/main.exe) once per seed 0-4 over all
# five workloads, one pass each (`--seconds 0`: the digest and the sim
# rows come from the untimed first pass, so the timed length cannot move
# them), inside a temporary directory it removes.  Prints one line per
# (workload, seed): its sim_digest and every row on the simulated clock
# as NAME=VALUE.  Then prints the digest lines of `PERF --smoke`.  Host
# rows are left out: no two runs agree on them.
set -eu
abs() { case $1 in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
perf=$(abs "${1:?usage: sh perf_digests.sh PERF BENCHMARK_JSON}")
spec=$(abs "${2:?usage: sh perf_digests.sh PERF BENCHMARK_JSON}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"
for s in 0 1 2 3 4; do
  "$perf" --seed "$s" --seconds 0 --json runs.jsonl >/dev/null
done
awk '
  function field(k, s) {
    match($0, "\"" k "\": \"?[^,\"]*")
    s = substr($0, RSTART, RLENGTH)
    sub(/.*: "?/, "", s)
    return s
  }
  {
    out = field("workload") " " field("seed") " " field("sim_digest")
    rest = $0
    while (match(rest, /"[a-z0-9_.]+": \{"value": [^,]*, "unit": "[^"]*", "clock": "sim"/)) {
      m = substr(rest, RSTART, RLENGTH)
      rest = substr(rest, RSTART + RLENGTH)
      split(m, name, "\"")
      sub(/.*"value": /, "", m)
      sub(/,.*/, "", m)
      out = out " " name[2] "=" m
    }
    print out
  }' runs.jsonl
"$perf" --smoke "$spec" | grep ', digest '
