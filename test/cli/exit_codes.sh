#!/bin/sh
# Check the exit status of mst on inputs it must accept, runs it must
# fail and inputs it must refuse.  Usage: exit_codes.sh MST
# (run from the directory holding the *.st fixtures).

mst=$1
out=$(mktemp) err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT
failures=0

fail() {
  echo "FAIL: mst $*"
  sed 's/^/  | /' "$err"
  failures=$((failures + 1))
}

# expect STATUS ARGS...: mst ARGS must exit with STATUS
expect() {
  want=$1
  shift
  "$mst" "$@" >"$out" 2>"$err"
  got=$?
  [ "$got" -eq "$want" ] || fail "$* exited $got, expected $want"
}

# refused ARGS...: exit 2, saying why on a line that starts "error: "
refused() {
  expect 2 "$@"
  grep -q '^error: ' "$err" || fail "$* printed no error: line"
}

expect 0 eval "3 + 4"
expect 0 run ok.st
expect 0 disasm Object yourself
expect 0 browse Object

# a run that fails: doesNotUnderstand under eval and under run
expect 1 eval "3 foo"
expect 1 run dnu.st

# source the compiler refuses
refused eval "3 +"
refused eval "16r"
refused run bad_method.st
refused run malformed.st

# counts that would run nothing
refused eval -p 0 "3 + 4"
refused run -p 0 ok.st
refused serve --sessions 0
refused serve --workers 0
refused serve --requests 0

# names the image does not define
refused disasm NoSuchClass yourself
refused disasm Object noSuchSelector
refused decompile Object noSuchSelector
refused browse NoSuchClass

# a value Cmdliner cannot parse: its usage message, and exit 2
expect 2 explore --config=nope
grep -q "invalid value 'nope'" "$err" ||
  fail "explore --config=nope printed no usage message"

if [ "$failures" -gt 0 ]; then
  echo "$failures exit-status check(s) failed"
  exit 1
fi
