#!/bin/sh
# Pin the CLI's exit-code discipline (bin/codar_cli.ml `guard`): scripts
# driving codar_cli must be able to tell failure classes apart without
# scraping stderr.
#
#   2  usage errors (unknown benchmark or objective, exclusive flags)
#   3  QASM parse/lex errors
#   4  routing/placement failures (circuit does not fit the device, a
#      router or placement pass gives up, restarts out of bounds)
#   5  I/O errors (unwritable output, no daemon on the socket)
#   124  a bad option value, cmdliner's own code (an unknown device)
#
# Usage: cli_exit_codes.sh path/to/codar_cli.exe
# (the .qasm fixtures are read from this script's directory)
set -u

CLI=$1
HERE=$(dirname "$0")
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

expect() {
  want=$1
  label=$2
  shift 2
  "$@" > /dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $label exited $got, want $want" >&2
    exit 1
  fi
}

# 0: the happy path stays 0
expect 0 "clean route" "$CLI" map -b qft_4
# QASM read from a pipe, which has no length to size the read by
printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[1];\n' \
  > "$DIR/good.qasm"
expect 0 "QASM from a pipe" \
  sh -c 'cat "$1" | "$2" map -a tokyo -i /dev/stdin' sh "$DIR/good.qasm" "$CLI"

printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nbananas;\n' \
  > "$DIR/bad.qasm"

# 2: usage errors (the --input file must exist — cmdliner checks first)
expect 2 "unknown benchmark" "$CLI" map -b no_such_bench
expect 2 "exclusive --input/--bench" "$CLI" map -b qft_4 -i "$DIR/bad.qasm"
# the objectives measured and deleted (docs/ALGORITHM.md) are unknown names
expect 2 "deleted objective inline" "$CLI" map -b qft_4 -r codar:slack
expect 2 "deleted objective in batch" "$CLI" batch -b qft_4 --objective depth
# 124 (cmdliner's own code for a bad option value): a device past
# Coupling.max_qubits, refused before it is built
expect 124 "device past the size bound" "$CLI" map -b qft_4 -a linear-1000000
# ... and a size in any spelling but decimal digits
expect 124 "hexadecimal device size" "$CLI" map -b ghz_3 -a linear-0x10
# placement counts are decimal digits too, and sabre-<k> is bounded by
# Placement.max_passes (64)
for p in sabre-0x3 random-0b11 sabre-1_0 sabre-+2 sabre-65; do
  expect 124 "placement $p" "$CLI" map -b qft_4 -p "$p"
done

# 3: QASM that does not parse
expect 3 "QASM parse error" "$CLI" map -i "$DIR/bad.qasm"
printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nrz(0/0) q[0];\n' \
  > "$DIR/nan.qasm"
expect 3 "non-finite gate parameter" "$CLI" map -i "$DIR/nan.qasm"
# texts that once parsed to a circuit the circuit constructor refused, or
# wrapped an overflowing index to the wrong qubit
n=0
for body in 'qreg q[2];\ncx q[0],q[0];' \
  'qreg q[2];\nccx q[0],q[0],q[1];' \
  'qreg q[2];\ngate g a,b { cx a,b; }\ng q[1],q[1];' \
  'qreg q[2];\nh q[4611686018427387904];' \
  'qreg q[4000000000000000000];\nqreg r[4000000000000000000];' \
  'qreg q[2];\nh q[1e30];' \
  'qreg q[2];\nh q[18446744073709551616];' \
  'qreg q[2];\ncreg c[2];\nmeasure q[1] -> c[1e30];'; do
  n=$((n + 1))
  printf "OPENQASM 2.0;\n$body\n" > "$DIR/hostile$n.qasm"
  expect 3 "hostile QASM $n" "$CLI" map -i "$DIR/hostile$n.qasm"
done
# texts that expand past what the device runs are refused by the parser,
# before placement or routing sees them (not 4): a register wider than
# Tokyo, and 20 macros that each apply the one before twice (2^20 gates)
printf 'OPENQASM 2.0;\nqreg q[2000000];\nh q;\n' > "$DIR/wide.qasm"
expect 3 "register wider than the device" \
  "$CLI" map -a tokyo -i "$DIR/wide.qasm"
{
  printf 'OPENQASM 2.0;\nqreg q[1];\ngate g0 a { h a; }\n'
  k=1
  while [ "$k" -le 20 ]; do
    printf 'gate g%d a { g%d a; g%d a; }\n' "$k" $((k - 1)) $((k - 1))
    k=$((k + 1))
  done
  printf 'g20 q[0];\n'
} > "$DIR/nest.qasm"
expect 3 "macro nest past the gate bound" \
  "$CLI" map -a tokyo -i "$DIR/nest.qasm"

# 4: a circuit that cannot be placed on the device
expect 4 "circuit too big for device" "$CLI" map -b qft_8 -a q5
# ... restarts outside 1..Codar.Portfolio.max_restarts (64), refused for
# every router as the daemon refuses them, by map and batch alike
expect 4 "no restarts" "$CLI" map -b qft_4 -r portfolio --restarts 0
expect 4 "restarts past the bound" "$CLI" map -b qft_4 -r portfolio \
  --restarts 65
expect 4 "no restarts, default router" "$CLI" map -b qft_4 --restarts 0
expect 4 "restarts past the bound, default router" "$CLI" map -b qft_4 \
  --restarts 65
expect 4 "batch: no restarts" "$CLI" batch -b qft_4 --restarts 0
expect 4 "batch: restarts past the bound" "$CLI" batch -b qft_4 \
  --restarts 65
# ... and a placement pass that gives up (SABRE's swap budget runs out on
# this circuit: Sabre.Router.Stuck), under every router
for r in codar sabre astar; do
  expect 4 "stuck placement, -r $r" \
    "$CLI" map -a melbourne -r "$r" -i "$HERE/sabre_stuck_cold_2824.qasm"
done

# 5: I/O failures
expect 5 "unwritable output path" "$CLI" map -b qft_4 -o /nonexistent/dir/out.qasm
expect 5 "no daemon on socket" "$CLI" client --socket /tmp/codar-no-daemon.sock ping

echo "exit codes: OK"
