#!/bin/sh
# No export without a caller: fail when a value that a library interface
# (lib/**/*.mli) exports is used by no other module's .ml under lib/,
# bin/, bench/, examples/, perfbench/ or test/, and list, without
# failing, the exports only test/ uses.
#
# A use is a qualified name: `Gate.arity`, `Qc.Gate.arity`, or a name
# through a module alias the using file declares (`module L = Lexer`,
# `module Json = Report.Json`). An unqualified `Gate.x` counts only
# inside Gate's own library, so `Sabre.Router` and `Astar.Router`, or
# `Codar.Stats` and `Schedule.Stats`, are told apart. Comments are
# skipped; members of a `module type ... = sig` are not exports. A
# name used only under a local open (`M.( ... )`, `let open M in`) is
# not seen: qualify one of its uses.
#
# Usage: dead_exports.sh ROOT   (ROOT holds lib/, bin/, bench/, ...)
set -u

# Exports kept without a caller, at most 10, one per line: the value as
# a user writes it, then the reason.
ALLOW='
Arch.Maqam.pp       toplevel printer (#install_printer Arch.Maqam.pp)
'

cd "${1:-.}" || exit 1

mlis=$(find lib -name '*.mli' -not -path '*/.*' | sort)
mls=$(find lib bin bench examples perfbench test -name '*.ml' \
  -not -path '*/.*' | sort)
dunes=$(find lib -name dune -not -path '*/.*' | sort)

printf '%s\n' "$ALLOW" | awk -v dunes="$dunes" -v mlis="$mlis" -v mls="$mls" '
function modname(path,   b) {
  b = path
  sub(/.*\//, "", b)
  sub(/\.mli?$/, "", b)
  return toupper(substr(b, 1, 1)) substr(b, 2)
}
function dirname(path,   d) {
  d = path
  sub(/\/[^\/]*$/, "", d)
  return d
}
function err(msg) {
  printf "dead_exports: %s\n", msg > "/dev/stderr"
  bad = 1
}
# The line with comments removed; [depth] carries across lines.
function strip(s,   out, i, c2) {
  out = ""
  for (i = 1; i <= length(s); i++) {
    c2 = substr(s, i, 2)
    if (c2 == "(*") { depth++; i++ }
    else if (c2 == "*)" && depth > 0) { depth--; i++ }
    else if (depth == 0) out = out substr(s, i, 1)
  }
  return out
}
BEGIN {
  # the module each library exposes: (name foo) -> Foo
  n = split(dunes, fl, "\n")
  for (i = 1; i <= n; i++) {
    while ((getline line < fl[i]) > 0)
      if (match(line, /\(name [a-z_0-9]+\)/)) {
        w = substr(line, RSTART + 6, RLENGTH - 7)
        wrap[dirname(fl[i])] = toupper(substr(w, 1, 1)) substr(w, 2)
      }
    close(fl[i])
  }
  # exports: keys["Mod.Sub.value"] = the public names it may denote,
  # space-separated (two libraries may both have a Router)
  n = split(mlis, fl, "\n")
  for (i = 1; i <= n; i++) {
    f = fl[i]; m = modname(f); d = dirname(f); lib = wrap[d]
    depth = 0; sp = 0
    while ((getline line < f) > 0) {
      line = strip(line)
      if (line ~ /^[ \t]*module type [A-Z][A-Za-z0-9_]* = sig/) {
        stk[++sp] = ""
        continue
      }
      if (line ~ /^[ \t]*module [A-Z][A-Za-z0-9_]* : sig/) {
        s = line; sub(/^[ \t]*module /, "", s); sub(/ .*/, "", s)
        stk[++sp] = s
        continue
      }
      if (line ~ /^[ \t]*end[ \t]*$/ && sp > 0) { sp--; continue }
      if (line !~ /^[ \t]*val [a-z_][A-Za-z0-9_]*/) continue
      s = line; sub(/^[ \t]*val /, "", s); sub(/[^A-Za-z0-9_].*/, "", s)
      key = m; skip = 0
      for (k = 1; k <= sp; k++) {
        if (stk[k] == "") skip = 1
        key = key "." stk[k]
      }
      if (skip) continue
      key = key "." s
      # a library main module (Pool, Cache) is reached without a prefix
      name = (lib == m) ? key : lib "." key
      keys[key] = (key in keys) ? keys[key] " " name : name
      edir[name] = d; emod[name] = m; elib[name] = (lib == m) ? "" : lib
      order[++nexp] = name
    }
    close(f)
  }
  # uses
  n = split(mls, fl, "\n")
  for (i = 1; i <= n; i++) {
    f = fl[i]; fm = modname(f); fd = dirname(f); test = (f ~ /^test\//)
    depth = 0
    split("", alias)
    while ((getline line < f) > 0) {
      line = strip(line)
      if (line ~ /^[ \t]*module [A-Z][A-Za-z0-9_]* = [A-Z][A-Za-z0-9_.]*[ \t]*$/) {
        a = line; sub(/^[ \t]*module /, "", a); sub(/ .*/, "", a)
        t = line; sub(/.*= /, "", t); sub(/[ \t]*$/, "", t)
        if (a != t) alias[a] = t
      }
      while (match(line, /[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)*\.[a-z_][A-Za-z0-9_]*/)) {
        tok = substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
        c1 = tok; sub(/\..*/, "", c1)
        if (c1 in alias) tok = alias[c1] substr(tok, length(c1) + 1)
        nc = split(tok, c, ".")
        suf = c[nc]
        for (j = nc - 1; j >= 1; j--) {
          suf = c[j] "." suf
          if (!(suf in keys)) continue
          ne = split(keys[suf], cand, " ")
          for (e = 1; e <= ne; e++) {
            x = cand[e]
            if (fd == edir[x] && fm == emod[x]) continue  # its own module
            if (j > 1) { if (c[j - 1] != elib[x]) continue }
            else if (elib[x] != "" && fd != edir[x]) continue
            if (test) tused[x] = 1; else used[x] = 1
          }
        }
      }
    }
    close(f)
  }
}
# the allowlist, on stdin
NF == 0 { next }
{
  nallow++
  allow[$1] = 1
  if (NF < 2) err("allowlist entry " $1 " has no reason")
}
END {
  if (nallow > 10) err(nallow " allowlist entries, at most 10")
  for (a in allow)
    if (!(a in edir)) err("allowlisted " a " is not exported")
    else if ((a in used) || (a in tused)) err("allowlisted " a " has a caller")
  for (i = 1; i <= nexp; i++) {
    x = order[i]
    if (x in used) continue
    if (x in tused) { tlist = tlist "  " x "\n"; ntest++ }
    else if (!(x in allow))
      err(x " (" edir[x] ") has no caller outside its module")
  }
  if (ntest > 0)
    printf "dead_exports: %d exports used only by test/:\n%s", ntest, tlist
  if (bad) exit 1
  printf "dead_exports: all %d exports have a caller (%d allowlisted)\n",
    nexp, nallow
}'
