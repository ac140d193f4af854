#!/usr/bin/env bash
# shard_smoke.sh — end-to-end smoke for the sharded control plane and
# the WAL result sink, via the real binaries. Run via `make shard-smoke`.
#
# Part 1: roam-fleet self-hosts a 4-shard plane with durable WALs, kills
# a shard mid-campaign, and must still crosscheck byte-identical against
# the serial in-process run.
#
# Part 2: roam-gateway serves a WAL-backed plane as a separate process;
# roam-fleet drives it via -server (v3 frame leases and uploads through
# the external gateway) and crosschecks; the gateway is then
# SIGTERMed and restarted over the same WAL dir, and must report the
# drained results replayed from disk — the cold-recovery path.
set -euo pipefail

TMP="$(mktemp -d)"
PORT="${SHARD_SMOKE_PORT:-18933}"

cleanup() {
    [ -n "${GW_PID:-}" ] && kill "$GW_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/roam-fleet" ./cmd/roam-fleet
go build -o "$TMP/roam-gateway" ./cmd/roam-gateway

# --- Part 1: sharded self-host, one forced shard kill, crosscheck. ---
OUT="$TMP/fleet.txt"
"$TMP/roam-fleet" -mes 12 -reps 1 \
    -shards 4 -wal-dir "$TMP/wal-fleet" -kill-shard 0 -crosscheck > "$OUT"

grep -q '^shards: 4 shards (WAL epoch 0), 1 killed and recovered' "$OUT" || {
    echo "shard-smoke: expected exactly one shard kill+recovery" >&2
    grep '^shards:' "$OUT" >&2 || true
    exit 1
}
grep -q '^crosscheck: fleet output matches' "$OUT" || {
    echo "shard-smoke: crosscheck line missing after shard kill" >&2
    exit 1
}

# --- Part 2: external gateway process, drive, kill, cold-restart. ---
"$TMP/roam-gateway" -listen "127.0.0.1:$PORT" -shards 3 \
    -wal-dir "$TMP/wal-gw" > "$TMP/gw1.txt" &
GW_PID=$!
i=0
until curl -sf "http://127.0.0.1:$PORT/admin/mes" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "shard-smoke: gateway did not come up on port $PORT" >&2
        exit 1
    fi
    sleep 0.1
done

"$TMP/roam-fleet" -mes 12 -reps 1 \
    -server "http://127.0.0.1:$PORT" -crosscheck > "$TMP/drive.txt"
grep -q '^crosscheck: fleet output matches' "$TMP/drive.txt" || {
    echo "shard-smoke: crosscheck failed against external gateway" >&2
    exit 1
}

kill -TERM "$GW_PID"
wait "$GW_PID" 2>/dev/null || true
GW_PID=

# Cold restart over the same WAL dir: the banner must report replayed
# results, proving the drained uploads survived the process death.
"$TMP/roam-gateway" -listen "127.0.0.1:$PORT" -shards 3 \
    -wal-dir "$TMP/wal-gw" > "$TMP/gw2.txt" &
GW_PID=$!
i=0
until grep -q 'results replayed' "$TMP/gw2.txt" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "shard-smoke: restarted gateway printed no banner" >&2
        exit 1
    fi
    sleep 0.1
done
REPLAYED="$(sed -n 's/.*(\([0-9]*\) results replayed).*/\1/p' "$TMP/gw2.txt")"
if [ -z "$REPLAYED" ] || [ "$REPLAYED" -eq 0 ]; then
    echo "shard-smoke: gateway restart replayed no results from the WALs" >&2
    cat "$TMP/gw2.txt" >&2
    exit 1
fi

echo "shard-smoke: OK (1 shard kill recovered; $REPLAYED results survived gateway restart)"
