#!/bin/sh
# Audit the exported surface of lib/, from the root of a checkout:
#
#   sh bench/export_audit.sh      (or: make export-audit)
#
# Prints the number of top-level `val`s in lib/*/*.mli, then each one
# that no other module uses, marked `private` when its own module uses
# it and `unused` when nothing does.  Modules under lib/ without an .mli
# export every top-level `let`; those are listed too when nothing
# outside the module names them.  Users are every .ml and .mli under
# lib/, bin/, bench/, test/ and examples/ other than the module's own
# pair.  Two more lists follow, of exports that do have outside users:
# `test-only`, whose every outside user is under test/, and
# `bare-only`, whose outside uses beyond test/ are all bare words in
# files that open the module (see below), so that a local variable of
# the same name may be all that keeps them alive.
#
# The scan is textual.  Comments and string literals are blanked first,
# so neither a doc reference nor Smalltalk source counts as a use.  A
# use is `Module.name`; a file that opens the module (`open M`,
# `let open M in`, `M.(...)`) uses every name it mentions bare other
# than after a dot, which may hide a dead export (a local variable of
# the same name) but never reports a live one.  Values of nested
# signatures (`Explore.Dpor`, `Fault.Rng`) are not audited.
#
# Reports only: the exit status is 0 whatever it finds.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

sources=$(find lib bin bench test examples -path '*/_build' -prune -o \
  \( -name '*.ml' -o -name '*.mli' \) -print | LC_ALL=C sort)

# Blank comments (nested), string literals, quoted strings {id|...|id}
# and character literals, keeping newlines.
strip() {
  awk '
    {
      line = $0; n = length(line); i = 1; out = ""
      while (i <= n) {
        c = substr(line, i, 1); two = substr(line, i, 2)
        if (mode == "q") {                      # {id| ... |id}
          if (substr(line, i, length(qend)) == qend) {
            mode = (depth > 0) ? "c" : ""; i += length(qend)
          } else i++
          continue
        }
        if (mode == "s") {                      # "..."
          if (c == "\\") i += 2
          else { if (c == "\"") mode = (depth > 0) ? "c" : ""; i++ }
          continue
        }
        if (two == "(*" && substr(line, i, 3) != "(*)") {
          depth++; mode = "c"; i += 2; continue
        }
        if (mode == "c") {
          if (two == "*)") { depth--; if (depth == 0) mode = ""; i += 2 }
          else if (match(substr(line, i), /^'\''(\\.|[^\\'\''])'\''/)) i += RLENGTH
          else if (c == "\"") { mode = "s"; i++ }
          else if (match(substr(line, i), /^\{[a-z_]*\|/)) {
            qend = "|" substr(line, i + 1, RLENGTH - 2) "}"
            mode = "q"; i += RLENGTH
          } else i++
          continue
        }
        if (c == "\"") { mode = "s"; out = out " "; i++; continue }
        if (match(substr(line, i), /^\{[a-z_]*\|/)) {
          qend = "|" substr(line, i + 1, RLENGTH - 2) "}"
          mode = "q"; out = out " "; i += RLENGTH; continue
        }
        if (match(substr(line, i), /^'\''(\\.|[^\\'\''])'\''/) ||
            match(substr(line, i), /^'\''\\[0-9][0-9][0-9]'\''/)) {
          out = out " "; i += RLENGTH; continue
        }
        out = out c; i++
      }
      print out
    }' "$1"
}

# One "user-module top-dir how reference" line per distinct qualified
# name a file mentions (how = q), plus one line per bare word of a file
# that opens a module (how = b).
for f in $sources; do
  m=$(basename "$f"); m=${m%.*}
  top=${f%%/*}
  strip "$f" > "$tmp/src"
  grep -oE "[A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_']*" "$tmp/src" |
    sed "s/^/$m $top q /" || true
  for o in $(grep -oE "(open!? +|let open +)[A-Z][A-Za-z0-9_]*|[A-Z][A-Za-z0-9_]*\.\(" "$tmp/src" |
               sed -E 's/^(open!? +|let open +)//; s/\.\($//' | sort -u); do
    # a word after a dot is a record field, not a value
    grep -oE "(^|[^.A-Za-z0-9_'])[a-z_][A-Za-z0-9_']*" "$tmp/src" |
      sed -E "s/^[^a-z_]//; s/^/$m $top b $o./"
  done
done | awk '{ sub(/^./, toupper(substr($1, 1, 1)), $1); print }' |
  LC_ALL=C sort -u > "$tmp/refs"

# Exports: "Module name kind source", kind val (from an .mli) or let
# (no .mli), source the module's .ml.
for f in $(echo "$sources" | grep '^lib/'); do
  m=$(basename "$f"); m=${m%.*}
  M=$(echo "$m" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  case $f in
    *.mli)
      strip "$f" |
        sed -nE "s|^val +([a-z_][A-Za-z0-9_']*).*|$M \1 val ${f%i}|p" ;;
    *.ml)
      [ -f "${f}i" ] && continue
      # a column-0 `and` continues the last let, type or module
      strip "$f" | awk -v M="$M" -v f="$f" '
        /^(let|type|module|exception|open|external|class)[^A-Za-z0-9_]/ {
          kw = $1 }
        kw == "let" && match($0, /^(let( +rec)?|and) +[a-z_][A-Za-z0-9_'\'']*/) {
          n = split(substr($0, 1, RLENGTH), w, " ")
          if (w[n] != "_") print M, w[n], "let", f
        }' ;;
  esac
done > "$tmp/exports"

vals=$(grep -c ' val ' "$tmp/exports" || true)
lets=$(grep -c ' let ' "$tmp/exports" || true)

# Classify each export by its outside users: none, only under test/, or
# (beyond test/) only bare words.
awk 'NR == FNR {
       own = substr($4, 1, index($4, ".") - 1)
       if ($1 != own) {
         outside[$4] = 1
         if ($2 != "test") { prog[$4] = 1; if ($3 == "q") qual[$4] = 1 }
       }
       next
     }
     {
       key = $1 "." $2
       if (!outside[key]) print "none", $0
       else if (!prog[key]) print "test", $0
       else if (!qual[key]) print "bare", $0
     }' "$tmp/refs" "$tmp/exports" > "$tmp/classes"

grep '^none ' "$tmp/classes" |
  while read -r _ M name kind src; do
    # the definition itself is one mention; a second is a use
    strip "$src" > "$tmp/src"
    if [ "$(grep -ow -- "$name" "$tmp/src" | grep -cx -- "$name")" -gt 1 ]
    then use=private; else use=unused; fi
    printf '  %-36s %s  %s\n' "$M.$name" "$kind" "$use"
  done > "$tmp/report"

for c in test bare; do
  grep "^$c " "$tmp/classes" |
    while read -r _ M name kind _; do
      printf '  %-36s %s  %s-only\n' "$M.$name" "$kind" "$c"
    done > "$tmp/$c" || true
done

echo "export-audit: $vals exported vals in lib/*/*.mli," \
  "$lets top-level lets in lib/ modules without an .mli"
echo "export-audit: $(wc -l < "$tmp/report") with no user outside their" \
  "module, $(grep -c ' unused$' "$tmp/report" || true) with no user at all:"
cat "$tmp/report"
echo "export-audit: $(wc -l < "$tmp/test") used outside their module" \
  "only under test/:"
cat "$tmp/test"
echo "export-audit: $(wc -l < "$tmp/bare") used outside their module and" \
  "test/ only as bare words under an open:"
cat "$tmp/bare"
