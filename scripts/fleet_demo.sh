#!/bin/sh
# Demo of the federated harvestd tier (DESIGN.md §9): three shards ingest
# disjoint slices of one access log, harvestagg serves the fleet-wide
# merged estimates. The script then kills one shard (coverage degrades,
# intervals widen), revives it from its checkpoint, and shows the merged
# estimates recover. The fleet stays up afterwards for poking; Ctrl-C
# tears everything down.
set -eu

TMP="${TMPDIR:-/tmp}/fleet-demo.$$"
mkdir -p "$TMP"
cleanup() {
	kill $(jobs -p) 2>/dev/null || true
	wait 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "== building harvestd + harvestagg"
go build -o "$TMP/harvestd" ./cmd/harvestd
go build -o "$TMP/harvestagg" ./cmd/harvestagg

echo "== generating a 6000-line access log, split across 3 shards"
awk 'BEGIN {
	s = 7
	for (i = 0; i < 6000; i++) {
		s = (s * 48271) % 2147483647; a = s % 2
		s = (s * 48271) % 2147483647; k = s % 64
		s = (s * 48271) % 2147483647; c0 = s % 8
		s = (s * 48271) % 2147483647; c1 = s % 8
		printf "127.0.0.1:1 - - [06/Jul/2026:10:30:00 +0000] \"GET /r/%d HTTP/1.1\" 200 42 \"-\" \"t\" rt=%.6f upstream=%d conns=%d|%d prop=0.500000\n", i, k / 64, a, c0, c1
	}
}' >"$TMP/full.log"
awk 'NR % 3 == 1' "$TMP/full.log" >"$TMP/shard-0.log"
awk 'NR % 3 == 2' "$TMP/full.log" >"$TMP/shard-1.log"
awk 'NR % 3 == 0' "$TMP/full.log" >"$TMP/shard-2.log"

POLICIES=uniform,leastloaded,constant:0
start_shard() { # N PORT: boot shard-N on PORT with its slice + checkpoint
	"$TMP/harvestd" -addr "127.0.0.1:$2" -shard-id "shard-$1" \
		-policies "$POLICIES" -workers 1 -nginx "$TMP/shard-$1.log" \
		-checkpoint "$TMP/shard-$1.ckpt" -checkpoint-interval 1s &
}

echo "== starting 3 shards (:8451-:8453) and the aggregator (:8450)"
start_shard 0 8451
start_shard 1 8452
start_shard 2 8453
SHARD2_PID=$!
"$TMP/harvestagg" -addr 127.0.0.1:8450 -pull-interval 200ms -stale-after 2s \
	-checkpoint "$TMP/agg.ckpt" \
	-shards shard-0=http://127.0.0.1:8451,shard-1=http://127.0.0.1:8452,shard-2=http://127.0.0.1:8453 &

wait_metric() { # PORT PATTERN
	for _ in $(seq 1 150); do
		if curl -sf "http://127.0.0.1:$1/metrics" 2>/dev/null | grep -q "$2"; then
			return 0
		fi
		sleep 0.2
	done
	echo "fleet demo: timed out waiting for $2 on :$1" >&2
	return 1
}

wait_metric 8450 '^harvestagg_policy_n{policy="uniform"} 6000$'
echo
echo "== fleet-wide merged estimates (all 6000 datapoints, 3 shards live)"
curl -sf http://127.0.0.1:8450/estimates
echo
echo "== shard health"
curl -sf http://127.0.0.1:8450/shards

echo
echo "== killing shard-2: coverage drops to 4000, intervals widen"
kill "$SHARD2_PID" 2>/dev/null || true
wait_metric 8450 '^harvestagg_shards_live 2$'
wait_metric 8450 '^harvestagg_policy_n{policy="uniform"} 4000$'
curl -sf http://127.0.0.1:8450/estimates
echo
curl -sf http://127.0.0.1:8450/shards

echo
echo "== reviving shard-2 from its checkpoint (no log replay needed)"
"$TMP/harvestd" -addr 127.0.0.1:8453 -shard-id shard-2 \
	-policies "$POLICIES" -workers 1 -checkpoint "$TMP/shard-2.ckpt" &
wait_metric 8450 '^harvestagg_shards_live 3$'
wait_metric 8450 '^harvestagg_policy_n{policy="uniform"} 6000$'
echo "== merged estimates fully recovered"
curl -sf http://127.0.0.1:8450/estimates

echo
echo "fleet is live: http://127.0.0.1:8450/{estimates,diagnostics,shards,metrics}"
echo "Ctrl-C to stop."
wait
