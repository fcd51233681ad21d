#!/bin/sh
# CI smoke for the federated tier: two harvestd shards ingest a split
# fixture log and harvestagg must serve /estimates, and the policy rows of
# /evidence, byte-identical to one monolithic daemon over the unsplit log
# (DESIGN.md §9 merge equivalence).
set -eu

TMP="${TMPDIR:-/tmp}/fleet-smoke.$$"
mkdir -p "$TMP"
PIDS=
cleanup() {
	# Not $(jobs -p): under dash the substitution's subshell has no jobs, and
	# a failed check then waits on the live daemons forever.
	kill $PIDS 2>/dev/null || true
	wait 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/harvestd" ./cmd/harvestd
go build -o "$TMP/harvestagg" ./cmd/harvestagg

# Dyadic-exact fixture: propensity 1/2 and rewards k/64 are exact in both
# decimal and binary, so float summation is associative and the fleet-vs-
# monolithic comparison can demand byte equality, not tolerance equality.
awk 'BEGIN {
	s = 42
	for (i = 0; i < 3000; i++) {
		s = (s * 48271) % 2147483647; a = s % 2
		s = (s * 48271) % 2147483647; k = s % 64
		s = (s * 48271) % 2147483647; c0 = s % 8
		s = (s * 48271) % 2147483647; c1 = s % 8
		printf "127.0.0.1:1 - - [06/Jul/2026:10:30:00 +0000] \"GET /r/%d HTTP/1.1\" 200 42 \"-\" \"t\" rt=%.6f upstream=%d conns=%d|%d prop=0.500000\n", i, k / 64, a, c0, c1
	}
}' >"$TMP/full.log"
awk 'NR % 2 == 1' "$TMP/full.log" >"$TMP/shard-a.log"
awk 'NR % 2 == 0' "$TMP/full.log" >"$TMP/shard-b.log"

POLICIES=uniform,leastloaded,constant:0
"$TMP/harvestd" -addr 127.0.0.1:8441 -policies "$POLICIES" -workers 1 -nginx "$TMP/full.log" &
PIDS="$PIDS $!"
"$TMP/harvestd" -addr 127.0.0.1:8442 -shard-id shard-a -policies "$POLICIES" -workers 1 -nginx "$TMP/shard-a.log" &
PIDS="$PIDS $!"
"$TMP/harvestd" -addr 127.0.0.1:8443 -shard-id shard-b -policies "$POLICIES" -workers 1 -nginx "$TMP/shard-b.log" &
PIDS="$PIDS $!"
"$TMP/harvestagg" -addr 127.0.0.1:8440 -pull-interval 100ms \
	-shards shard-a=http://127.0.0.1:8442,shard-b=http://127.0.0.1:8443 &
PIDS="$PIDS $!"

# wait_metric PORT PATTERN: poll /metrics until a line matches.
wait_metric() {
	for _ in $(seq 1 150); do
		if curl -sf "http://127.0.0.1:$1/metrics" 2>/dev/null | grep -q "$2"; then
			return 0
		fi
		sleep 0.2
	done
	echo "fleet smoke: timed out waiting for $2 on :$1" >&2
	curl -s "http://127.0.0.1:$1/metrics" >&2 || true
	return 1
}

wait_metric 8441 '^harvestd_folded_total 3000$'
wait_metric 8440 '^harvestagg_shards_live 2$'
wait_metric 8440 '^harvestagg_policy_n{policy="uniform"} 3000$'
curl -sf http://127.0.0.1:8440/metrics | grep -q 'harvestagg_shard_up{shard="shard-a"} 1'
curl -sf http://127.0.0.1:8440/metrics | grep -q 'harvestagg_shard_up{shard="shard-b"} 1'

curl -sf http://127.0.0.1:8440/estimates >"$TMP/fleet.json"
curl -sf http://127.0.0.1:8441/estimates >"$TMP/mono.json"
cmp "$TMP/fleet.json" "$TMP/mono.json"

# /evidence: the estimate + diagnostics rows (the payload's last field) are
# the same bytes on both tiers; the watermark and the stamp above them
# describe the tier and differ.
EVIDENCE='evidence?policy=leastloaded,uniform'
for tier in 8440 8441; do
	curl -sf "http://127.0.0.1:$tier/$EVIDENCE" >"$TMP/evidence.json"
	sed -n '/^ "policies": \[/,$p' "$TMP/evidence.json" >"$TMP/evidence-rows-$tier.json"
done
grep -q '"policy": "leastloaded"' "$TMP/evidence-rows-8440.json"
cmp "$TMP/evidence-rows-8440.json" "$TMP/evidence-rows-8441.json"

echo "fleet smoke OK: merged /estimates and /evidence rows byte-identical to monolithic (n=3000, 3 policies)"
