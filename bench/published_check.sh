#!/bin/sh
# The published-number check: rerun the bench sections that write the
# committed BENCH_*.json files and fail unless each file comes out
# byte-identical.  Every field they hold is simulated, so any difference
# is a changed published number: regenerate the file with a full
# `bench/main.exe SECTION` run and commit it with the change that moved
# it.
#
#   sh bench/published_check.sh      (or `make published-check`)
#
# The sections run inside a temporary directory removed at the end, so
# the committed files are never overwritten.

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root" || exit 1
dune build bench/main.exe || exit 1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp" || exit 1
"$root/_build/default/bench/main.exe" e16-steal e17-server e18-gc e19-cluster \
  >bench.out || { cat bench.out; exit 1; }
status=0
for committed in "$root"/BENCH_*.json; do
  f=$(basename "$committed")
  if ! cmp -s "$committed" "$f"; then
    echo "published-check: $f differs from the committed file"
    diff "$committed" "$f"
    status=1
  fi
done
exit $status
