#!/usr/bin/env bash
# bench_fleet.sh — run BenchmarkFleetThroughput at 100 and 1000 MEs
# and snapshot the results/s figures into a JSON file (default
# BENCH_fleet.json). CI uploads the file as an artifact so control-plane
# throughput is comparable commit over commit.
#
# Usage: bench_fleet.sh [OUT.json]
#
# The snapshot also records the sharded-gateway ratio at 1000 MEs — the
# v3-shards4 row is the same drain through the 4-shard consistent-hash
# gateway, so the ratio prices the routing peek + proxy hop.
#
# It also runs the same realized 1000-ME campaign twice through
# roam-fleet — once on the wall clock, once on the virtual clock — and
# records the wall-time ratio as virtual_over_real_at_1000. The video
# tool is excluded (its 120 s watch window alone would dominate the real
# run) and the real side gets an explicit worker pool so realized sleeps
# overlap; the virtual side jumps them at quiescence either way. The
# acceptance floor for the virtual-time engine is 5x.
set -euo pipefail

OUT="${1:-BENCH_fleet.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT INT TERM

FLEET_FLAGS=(-mes 1000 -workers 64 -reps 1 -configs sim -tools cdn -realize)

wall_seconds() { # args: roam-fleet flags...; prints the run-wall-seconds value
    go run ./cmd/roam-fleet "$@" | awk '/^run-wall-seconds:/ { print $2 }'
}

echo "bench-fleet: realized 1000-ME campaign, wall clock..."
REAL_WALL="$(wall_seconds "${FLEET_FLAGS[@]}")"
echo "bench-fleet: realized 1000-ME campaign, virtual clock..."
VIRT_WALL="$(wall_seconds "${FLEET_FLAGS[@]}" -virtual-time)"
SPEEDUP="$(awk -v r="$REAL_WALL" -v v="$VIRT_WALL" 'BEGIN { printf "%.2f", r / v }')"
echo "bench-fleet: real ${REAL_WALL}s, virtual ${VIRT_WALL}s => ${SPEEDUP}x"
if ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 5.0) }'; then
    echo "bench-fleet: FAIL: virtual_over_real_at_1000 = ${SPEEDUP}x, acceptance floor is 5x" >&2
    exit 1
fi

# -short skips the 10k-ME rows (minutes of wall clock); 100/1000 MEs
# are the rows the acceptance gate and the README table quote.
go test -short -run='^$' -bench=FleetThroughput -benchtime=1x \
    ./internal/fleet | tee "$RAW"

# Benchmark lines look like:
#   BenchmarkFleetThroughput/v3/mes=1000-8  1  123456 ns/op  232075 results/s
awk -v real_wall="$REAL_WALL" -v virt_wall="$VIRT_WALL" '
BEGIN { print "{"; first = 1 }
/^BenchmarkFleetThroughput\// {
    split($1, parts, "/")
    row = parts[2]
    sub(/-[0-9]+$/, "", parts[3])  # strip -GOMAXPROCS suffix
    mes = parts[3]; sub(/^mes=/, "", mes)
    for (i = 2; i < NF; i++) if ($(i + 1) == "results/s") rate = $i
    key = row "/mes=" mes
    if (!first) printf ",\n"
    first = 0
    printf "  \"%s\": %s", key, rate
    rates[key] = rate
}
END {
    if (("v3/mes=1000" in rates) && ("v3-shards4/mes=1000" in rates) && rates["v3/mes=1000"] > 0)
        printf ",\n  \"shards4_over_1_at_1000\": %.2f", rates["v3-shards4/mes=1000"] / rates["v3/mes=1000"]
    if (virt_wall > 0)
        printf ",\n  \"virtual_over_real_at_1000\": %.2f", real_wall / virt_wall
    print "\n}"
}
' "$RAW" > "$OUT"

echo "bench-fleet: wrote $OUT"
cat "$OUT"
