#!/bin/sh
# Audit the engine's per-event path for polymorphic comparison, from the
# root of a checkout after `dune build`:
#
#   sh bench/int_compare_audit.sh [BUILD-DIR]   (or: make int-compare-audit)
#
# BUILD-DIR defaults to _build/default.  On OCaml 5.1 `Stdlib.max`/`min`
# are not inlined and the polymorphic operators compile to C calls into
# compare_val, so one `max a b` on ints on the engine's per-event path
# costs a C call per event.  Int.max, Int.min and comparisons at a known
# int type compile to plain compares.
#
# Disassembles the native objects of the modules on that path with
# `objdump -drl` and fails on any relocation to a polymorphic comparison
# primitive (caml_greaterequal, caml_lessequal, caml_greaterthan,
# caml_lessthan, caml_compare, caml_equal, caml_notequal) or to
# Stdlib.max, Stdlib.min or Stdlib.compare.  Each finding names the
# object, the function, the source line of the call (an inlined call
# names the line it was inlined from) and the call count.  A listed
# object that is missing fails too, so a rename cannot pass the audit
# silently.
set -eu
cd "$(dirname "$0")/.."
build=${1:-_build/default}

objects="
lib/vkernel/.vkernel.objs/native/machine.o
lib/vkernel/.vkernel.objs/native/spinlock.o
lib/vkernel/.vkernel.objs/native/sanitizer.o
lib/vkernel/.vkernel.objs/native/devices.o
lib/vkernel/.vkernel.objs/native/trace.o
lib/vkernel/.vkernel.objs/native/calendar.o
lib/vkernel/.vkernel.objs/native/fault.o
lib/interp/.interp.objs/native/scheduler.o
lib/interp/.interp.objs/native/free_contexts.o
lib/interp/.interp.objs/native/method_cache.o
lib/interp/.interp.objs/native/state.o
lib/interp/.interp.objs/native/interp.o
lib/interp/.interp.objs/native/primitives.o
lib/objmem/.objmem.objs/native/heap.o
lib/objmem/.objmem.objs/native/major.o
lib/objmem/.objmem.objs/native/scavenger.o
lib/core/.core.objs/native/vm.o
"

status=0
n=0
for o in $objects; do
  n=$((n + 1))
  if [ ! -f "$build/$o" ]; then
    echo "int-compare-audit: missing $build/$o" >&2
    status=1
    continue
  fi
  # one "function line symbol count" line per offending call target
  hits=$(objdump -drl "$build/$o" | awk '
    /^[0-9a-f]+ <.*>:$/ {
      fn = $2; gsub(/[<>:]/, "", fn); loc = "?"; next
    }
    /^\/.*:[0-9]+/ {
      loc = $1; sub(/^.*\/lib\//, "lib/", loc); next
    }
    /R_X86_64_|R_AARCH64_/ {
      sym = $NF; sub(/[-+]0x[0-9a-f]+$/, "", sym)
      if (sym ~ /^caml_(greaterequal|lessequal|greaterthan|lessthan|compare|equal|notequal)$/ ||
          sym ~ /^camlStdlib\.(max|min|compare)_[0-9]+$/)
        count[fn " " loc " " sym]++
    }
    END { for (k in count) print k, count[k] }' | sort)
  if [ -n "$hits" ]; then
    echo "$hits" | while read -r fn loc sym c; do
      echo "int-compare-audit: $o: $fn ($loc) calls $sym x$c" >&2
    done
    status=1
  fi
done

[ "$status" -eq 0 ] &&
  echo "int-compare-audit: $n objects, no polymorphic comparison"
exit "$status"
