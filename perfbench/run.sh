#!/usr/bin/env bash
# Builds the benchmark and the CLI from source, then runs one benchmark
# invocation from the root of the checkout:
#   bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 10 --trace 0
# Build output goes to stderr so the last line of stdout stays the result.
# The run is pinned to one CPU when the host allows it: left free, the
# scheduler moves the client, the daemon and its threads between CPUs and
# the daemon's throughput comes out bimodal from run to run.
set -euo pipefail
# no shared build cache: the run writes nothing outside the checkout
DUNE_CACHE=disabled dune build --root . perfbench/bench.exe bin/codar_cli.exe 1>&2
pin=()
if command -v taskset >/dev/null 2>&1 && taskset -c 0 true 2>/dev/null; then
  pin=(taskset -c 0)
fi
exec "${pin[@]}" ./_build/default/perfbench/bench.exe \
  --cli ./_build/default/bin/codar_cli.exe "$@"
