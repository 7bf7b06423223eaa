#!/bin/sh
# Smoke-test the compile daemon end to end through the real CLI binary:
# boot it on a /tmp socket (Unix socket paths are length-limited, so not
# under _build), route a benchmark cold, route it again warm, byte-diff
# the two replies, poke it with a malformed frame, and shut it down.
#
# Usage: service_smoke.sh path/to/codar_cli.exe
set -eu

CLI=$1
SOCK=$(mktemp -u /tmp/codar-smoke-XXXXXX).sock
DIR=$(mktemp -d)
trap 'kill $SERVER_PID 2>/dev/null || true; rm -rf "$DIR" "$SOCK"' EXIT

"$CLI" serve --socket "$SOCK" --jobs 2 --cache-entries 64 \
  > "$DIR/serve.log" 2>&1 &
SERVER_PID=$!

# wait for the socket to appear (on_ready prints only to the daemon log)
i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "FAIL: daemon never bound $SOCK" >&2
    cat "$DIR/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done

"$CLI" client --socket "$SOCK" ping > "$DIR/ping.json"
grep -q '"ok":true' "$DIR/ping.json"

# cold route, then the cached re-route: the replies must be byte-identical
"$CLI" client --socket "$SOCK" route -b qft_4 --restarts 2 > "$DIR/cold.json"
"$CLI" client --socket "$SOCK" route -b qft_4 --restarts 2 > "$DIR/warm.json"
cmp "$DIR/cold.json" "$DIR/warm.json"

# the warm route must have been a cache hit, not a recomputation
"$CLI" client --socket "$SOCK" stats > "$DIR/stats.json"
grep -q '"routes_computed":1' "$DIR/stats.json"
grep -q '"hits":1' "$DIR/stats.json"

# a malformed frame gets an error reply and must not kill the daemon
echo 'this is not json' | "$CLI" client --socket "$SOCK" raw > "$DIR/bad.json"
grep -q '"code":"parse"' "$DIR/bad.json"
"$CLI" client --socket "$SOCK" ping > /dev/null

# raw passthrough skips a blank keep-alive line, which the daemon answers
# with nothing: both pings get their pong and the client exits
printf '{"op":"ping"}\n\n{"op":"ping"}\n' |
  timeout 10 "$CLI" client --socket "$SOCK" raw > "$DIR/raw.json"
[ "$(grep -c '"ok":true' "$DIR/raw.json")" -eq 2 ]

"$CLI" client --socket "$SOCK" shutdown > "$DIR/shutdown.json"
grep -q '"ok":true' "$DIR/shutdown.json"
wait $SERVER_PID

echo "service smoke: OK"
