#!/bin/sh
# Objective smoke: route one circuit per objective per device through the
# real CLI binary, with semantic verification on, and pin determinism by
# byte-diffing two runs of every (objective, device) cell. One cell also
# exercises the portfolio with mixed-objective membership and the esp
# selection metric on a calibrated profile.
#
# Usage: objective_smoke.sh path/to/codar_cli.exe
set -eu

CLI=$1
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

# device / durations / benchmark cells: one calibrated profile per device
# family so the t2 objective sees every issue-policy regime
CELLS="tokyo:sc:qft_5 linear-8:ion:ghz_5 grid-2x3:atom:adder_4"

for obj in makespan t2; do
  for cell in $CELLS; do
    arch=${cell%%:*}
    rest=${cell#*:}
    dur=${rest%%:*}
    bench=${rest#*:}
    out="$DIR/$obj-$arch.json"
    "$CLI" map -b "$bench" -a "$arch" -d "$dur" -r "codar:$obj" \
      --verify --json "$out" > "$DIR/$obj-$arch.txt"
    grep -q 'verify: *OK' "$DIR/$obj-$arch.txt"
    grep -q "\"objective\": \"$obj\"" "$out"
    # determinism: the human report must be byte-identical across runs
    # (the "wrote <path>" trailer names a different file, so drop it)
    "$CLI" map -b "$bench" -a "$arch" -d "$dur" -r "codar:$obj" \
      --verify --json "$out.2" > "$DIR/$obj-$arch.txt.2"
    grep -v '^wrote ' "$DIR/$obj-$arch.txt" > "$DIR/a.txt"
    grep -v '^wrote ' "$DIR/$obj-$arch.txt.2" > "$DIR/b.txt"
    cmp "$DIR/a.txt" "$DIR/b.txt"
  done
done

# inline sugar and the explicit flag must resolve identically
"$CLI" map -b qft_5 -a tokyo -d sc -r codar --objective t2 \
  --verify > "$DIR/flag.txt"
grep -v '^wrote ' "$DIR/t2-tokyo.txt" > "$DIR/a.txt"
cmp "$DIR/a.txt" "$DIR/flag.txt"

# mixed-objective portfolio under the esp metric on a calibrated profile
"$CLI" map -b qft_5 -a tokyo -d sc -r portfolio \
  --objective makespan,t2 --metric esp --restarts 4 \
  --verify --json "$DIR/portfolio.json" > "$DIR/portfolio.txt"
grep -q 'verify: *OK' "$DIR/portfolio.txt"
grep -q '"metric": "esp"' "$DIR/portfolio.json"
grep -q '"t2"' "$DIR/portfolio.json"

# a bad objective must be a usage error (exit 2), not a crash
set +e
"$CLI" map -b qft_5 -a tokyo -d sc -r codar:bogus > /dev/null 2>&1
code=$?
set -e
[ "$code" -eq 2 ] || { echo "FAIL: bad objective exited $code, want 2" >&2; exit 1; }

echo "objective smoke: OK"
