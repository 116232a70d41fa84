#!/usr/bin/env bash
# CLI-vs-daemon byte identity (DESIGN.md §14), the cli_daemon_parity ctest:
# for small flow, scenario and evolve jobs, `cmp` the local --report file
# against `sctune client <op> --report` from a sctuned on a temporary socket
# (text, and --json for scenario and evolve). Builds nothing.
#
#   scripts/cli_daemon_parity.sh path/to/sctune path/to/sctuned
set -euo pipefail

CLI="$1"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/sct_parity.XXXXXX")"
SOCK="$WORK/sctuned.sock"
"$2" --socket "$SOCK" --cache-dir "$WORK/daemon-cache" &
DAEMON_PID=$!
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
for _ in $(seq 100); do [ -S "$SOCK" ] && break; sleep 0.1; done

# parity NAME OP ARGS...: local report vs daemon report for one job.
parity() {
  local name="$1" op="$2"
  shift 2
  "$CLI" "$op" "$@" --no-cache --report "$WORK/$name.local" >/dev/null
  "$CLI" client "$op" --socket "$SOCK" "$@" \
    --report "$WORK/$name.daemon" >/dev/null
  cmp "$WORK/$name.local" "$WORK/$name.daemon"
  echo "$name: local and daemon reports byte-identical"
}

SMALL=(--profile small --mc 6)
SCENARIO=("${SMALL[@]}" --period 8.0 --scenarios tuning,clock --trials 16)
EVOLVE=("${SMALL[@]}" --period 4.0 --population 4 --generations 1)
parity flow flow "${SMALL[@]}" --period 8.0 --method sigma-ceiling \
  --value 0.02
parity scenario scenario "${SCENARIO[@]}"
parity scenario-json scenario "${SCENARIO[@]}" --json
parity evolve evolve "${EVOLVE[@]}"
parity evolve-json evolve "${EVOLVE[@]}" --json

"$CLI" client shutdown --socket "$SOCK" >/dev/null
wait "$DAEMON_PID"
