#!/bin/sh
# Keep the routing kernels and the route summary integer code: fail when
# one of the modules below references OCaml's polymorphic comparison
# primitives or the polymorphic `Stdlib.max`/`Stdlib.min`. An `=` or `<`
# whose operands the compiler cannot type as int (an unannotated helper,
# a `compare` passed to a sort) compiles to a C call into the generic
# structural comparator instead of one machine instruction, and
# `max`/`min` are out-of-line calls that make that same C call
# (`Int.max`/`Int.min` inline to a compare and a move).
#
# Usage: monomorphic.sh sabre.a codar.a qc.a qasm.a schedule.a sim.a
set -u

MODULES="sabre__Router codar__Remapper codar__Cf_front codar__Swap_scorer
codar__Heuristic qc__Commute qc__Metrics qasm__Lexer qasm__Parser
schedule__Routed schedule__Timeline sim__Reliability"
SYMBOLS='caml_(equal|notequal|compare|lessthan|lessequal|greaterthan|greaterequal)$|camlStdlib\.(max|min)_[0-9]+$'

undefined=$(nm -A -u "$@") || {
  echo "monomorphic: nm failed on $*" >&2
  exit 1
}
status=0
for m in $MODULES; do
  # a renamed or moved module must not pass by vanishing
  if ! printf '%s\n' "$undefined" | grep -q ":$m\.o:"; then
    if ! nm -A "$@" 2>/dev/null | grep -q ":$m\.o:"; then
      echo "monomorphic: $m not found in $*" >&2
      status=1
      continue
    fi
  fi
  found=$(printf '%s\n' "$undefined" | grep ":$m\.o:" | grep -E "$SYMBOLS" |
    awk '{print $NF}' | sort -u | tr '\n' ' ')
  if [ -n "$found" ]; then
    echo "monomorphic: $m references $found" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "monomorphic: routing kernels use no polymorphic comparison or max/min"
exit "$status"
