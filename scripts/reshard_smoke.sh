#!/usr/bin/env bash
# reshard_smoke.sh — end-to-end smoke for live resharding and WAL
# compaction, via the real binaries. Run via `make reshard-smoke`.
#
# Part 1: roam-fleet self-hosts a 1-shard plane with durable WALs,
# live-reshards it onto 4 shards mid-campaign, compacts segments as
# they seal, and must still crosscheck byte-identical against the
# serial in-process run.
#
# Part 2: roam-gateway cold-starts over the resharded+compacted WAL
# dir. The manifest must steer it to the epoch-1 four-shard set (the
# -shards flag deliberately disagrees), and the banner must report
# every drained result replayed from the surviving — partly compacted —
# segments.
set -euo pipefail

TMP="$(mktemp -d)"
PORT="${RESHARD_SMOKE_PORT:-18943}"

cleanup() {
    [ -n "${GW_PID:-}" ] && kill "$GW_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/roam-fleet" ./cmd/roam-fleet
go build -o "$TMP/roam-gateway" ./cmd/roam-gateway

# --- Part 1: live 1→4 reshard + compaction under -crosscheck. ---
OUT="$TMP/fleet.txt"
"$TMP/roam-fleet" -mes 12 -reps 1 \
    -shards 1 -wal-dir "$TMP/wal" -wal-segment-bytes 2048 \
    -reshard 4 -reshard-after 3 -compact-after 2 -crosscheck > "$OUT"

grep -q '^shards: 4 shards (WAL epoch 1)' "$OUT" || {
    echo "reshard-smoke: expected the campaign to end on 4 shards at epoch 1" >&2
    grep '^shards:' "$OUT" >&2 || true
    exit 1
}
grep -q '^reshard: 1 reshards completed' "$OUT" || {
    echo "reshard-smoke: reshard summary line missing" >&2
    exit 1
}
grep -Eq '^compact: [1-9][0-9]* source segments retired' "$OUT" || {
    echo "reshard-smoke: no WAL segments were compacted — shrink -wal-segment-bytes" >&2
    grep '^compact:' "$OUT" >&2 || true
    exit 1
}
grep -q '^crosscheck: fleet output matches' "$OUT" || {
    echo "reshard-smoke: crosscheck failed after reshard+compaction" >&2
    exit 1
}
RECORDS="$(sed -n 's/.*WAL: \([0-9]*\) results in.*/\1/p' "$OUT")"
if [ -z "$RECORDS" ] || [ "$RECORDS" -eq 0 ]; then
    echo "reshard-smoke: fleet reported no WAL records" >&2
    exit 1
fi

# --- Part 2: cold restart over the resharded WALs, manifest-steered. ---
# -shards 2 on purpose: the manifest (epoch 1, 4 shards) must win.
"$TMP/roam-gateway" -listen "127.0.0.1:$PORT" -shards 2 \
    -wal-dir "$TMP/wal" > "$TMP/gw.txt" &
GW_PID=$!
i=0
until grep -q 'results replayed' "$TMP/gw.txt" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "reshard-smoke: gateway printed no banner over the resharded WALs" >&2
        cat "$TMP/gw.txt" >&2 || true
        exit 1
    fi
    sleep 0.1
done
grep -q '^roam-gateway: 4 shards (WAL epoch 1)' "$TMP/gw.txt" || {
    echo "reshard-smoke: restart ignored the WAL manifest" >&2
    cat "$TMP/gw.txt" >&2
    exit 1
}
REPLAYED="$(sed -n 's/.*(\([0-9]*\) results replayed).*/\1/p' "$TMP/gw.txt")"
if [ "$REPLAYED" != "$RECORDS" ]; then
    echo "reshard-smoke: cold replay returned $REPLAYED results, campaign drained $RECORDS" >&2
    exit 1
fi
kill -TERM "$GW_PID"
wait "$GW_PID" 2>/dev/null || true
GW_PID=

echo "reshard-smoke: OK (1→4 reshard crosschecked; $REPLAYED results survived compaction + cold restart)"
