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
# int type compile to plain compares.  The census (verify.o), snapshot
# capture (snapshot.o) and the cluster loop (replica.o, with what it
# inlines from cmdlog.ml) are on the list too: a replicated cluster runs
# them at every wave boundary, once per replica, so they are that
# workload's per-boundary path.
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
#
# Another check keeps the closure-form lock bracket off the send,
# return, allocation and store paths: ctx.o, free_contexts.o,
# method_cache.o and state.o must bracket their critical sections with
# Spinlock.enter/leave, which allocate nothing, so any relocation there
# to Spinlock.critical (a closure and a result pair per call) fails.
#
# One more check guards the scavenger's typed copy: every copy that
# scavenger.ml writes targets simulated memory, an `int array` in the
# OCaml major heap, where `Array.blit` stores each word through
# caml_modify.  It must use Heap.blit_words, so any relocation to
# caml_array_blit or Stdlib's Array.blit attributed to a scavenger.ml
# line fails the audit.  (Host-table growth that scavenger.o inlines from
# heap.ml or trace.ml may still call Array.blit.)
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
lib/vkernel/.vkernel.objs/native/plan.o
lib/interp/.interp.objs/native/scheduler.o
lib/interp/.interp.objs/native/free_contexts.o
lib/interp/.interp.objs/native/method_cache.o
lib/interp/.interp.objs/native/ctx.o
lib/interp/.interp.objs/native/state.o
lib/interp/.interp.objs/native/interp.o
lib/interp/.interp.objs/native/primitives.o
lib/objmem/.objmem.objs/native/heap.o
lib/objmem/.objmem.objs/native/major.o
lib/objmem/.objmem.objs/native/scavenger.o
lib/objmem/.objmem.objs/native/verify.o
lib/image/.stimage.objs/native/snapshot.o
lib/core/.core.objs/native/vm.o
lib/core/.core.objs/native/replica.o
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
  scav=0
  [ "$o" = lib/objmem/.objmem.objs/native/scavenger.o ] && scav=1
  crit=0
  case $o in
    */ctx.o | */free_contexts.o | */method_cache.o | */state.o) crit=1 ;;
  esac
  hits=$(objdump -drl "$build/$o" | awk -v scav="$scav" -v crit="$crit" '
    /^[0-9a-f]+ <.*>:$/ {
      fn = $2; gsub(/[<>:]/, "", fn); loc = "?"; next
    }
    /^\/.*:[0-9]+/ {
      loc = $1; sub(/^.*\/lib\//, "lib/", loc); next
    }
    /R_X86_64_|R_AARCH64_/ {
      sym = $NF; sub(/[-+]0x[0-9a-f]+$/, "", sym)
      if (sym ~ /^caml_(greaterequal|lessequal|greaterthan|lessthan|compare|equal|notequal)$/ ||
          sym ~ /^camlStdlib\.(max|min|compare)_[0-9]+$/ ||
          (crit && sym ~ /^camlSpinlock\.critical(_inner)?_[0-9]+$/) ||
          (scav && loc ~ /^lib\/objmem\/scavenger\.ml:/ &&
           (sym == "caml_array_blit" ||
            sym ~ /^camlStdlib__Array\.blit_[0-9]+$/)))
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
  echo "int-compare-audit: $n objects, no polymorphic comparison, no Array.blit in scavenger.ml, no Spinlock.critical on the send and store paths"
exit "$status"
