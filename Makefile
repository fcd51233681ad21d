GO ?= go

.PHONY: all build vet lint lint-json wirelock loc test loopbench-check race bench bench-all bench-parallel experiments fuzz harvestd-demo trace-demo fleet-demo rollout-demo clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

# Repo-specific invariants the compiler cannot check, seven analyzers over
# the packages `go list` resolves: seeded RNG plumbing, guarded propensity
# divisions, virtual clocks in simulations, no dropped errors, plus the
# dataflow analyses (propensity taint, map-order determinism, wire-struct
# locking). Any finding fails the build; see internal/lint, DESIGN.md §6
# and §11.
lint:
	$(GO) run ./cmd/harvestlint ./...

# Machine-readable diagnostics for CI artifact upload (same gate as lint).
lint-json:
	$(GO) run ./cmd/harvestlint -json ./... > LINT_harvestlint.json

# Regenerate internal/lint/wire.lock from the watched wire structs. Refuses
# a struct whose field set changed without its version constant moving; CI
# regenerates and fails on diff, so schema bumps are always deliberate.
wirelock:
	$(GO) run ./cmd/harvestlint -wirelock

# Non-test Go lines per package and in total, outside bench/ — the count
# ROADMAP item 2's net-line rule reads.
loc:
	sh scripts/loc.sh

test:
	$(GO) test ./...

# The loop benchmark (bench/) is its own module, so `go build ./...` and
# `go test ./...` at the root cannot see an exported-API break in it.
loopbench-check:
	cd bench && $(GO) vet . && $(GO) test .

race:
	$(GO) test -race ./...

# Focused federation + ingest + rollout hot-path benchmarks (ope.Accum's
# per-record fold and merge, registry fan-out per record and per batch,
# snapshot encode/decode, binary codec, end-to-end
# source→fold ingest per format, gate evaluation and state transition), emitted as
# BENCH_harvestd.json for CI trend tracking. RegistryFold also selects
# RegistryFoldBatch/{1,64,720,wide32,policies={1,4,16,64}}, where one op is
# one record and the policies rows (8 upstreams, 97-record batches) are the
# fold's cost-per-candidate slope. IngestBin/{k3,wide32} is the binary path's
# records/s; IngestScaling/{nginx,bin,bin-wide32}/workers={1,2} is the two
# batch paths at 64 Ki records an op — 16
# times IngestNginx's and IngestBin's, whose ops are a sixth per-Run warm-up —
# and what the second worker buys them, binrec also on IngestBin's wide32
# shape (the loop benchmark's wide-fold-read); BinRecDecode/{k2,k8} pins 0
# allocs/op at both context widths, framing and CRC included, and
# BinRecDecode/batch/{k2,k8,k2/tagged} is Batch.Decode alone over segments
# read beforehand (tagged: four tags in turn, so the intern table is asked). ParseNginxLine/{compat,batch}/{k2,k8} is
# one access-log line → one datapoint, on the one-off API and on the batch
# path IngestNginx runs (0 allocs/op there); ParseNginxLine/batch/k2/typed
# is that path with a type= field folded into typed contexts (3 types),
# batch/k2/foreign with fields the proxy never writes (nginx's request_time=
# and upstream_*) ahead of its own, and batch/malformed a log where every
# line fails. The read path is
# RegistryEstimates/{k3,wide32} (every policy rendered), AggregatorEvidence/
# {k3,wide32} (two policies read off the shard set) and StepHTTP/{k2of3,
# k2of32} (one rolloutd step against a live harvestd over loopback).
# ProxyRequest/{direct,proxied,proxied-parallel} is one 64-byte GET straight
# to an upstream and through netlb's proxy (access log to a file): proxied
# minus direct is what the proxy adds; proxied-parallel is 64 goroutines
# and reports p99-us, which only `go test -bench` prints (benchjson keeps
# ns/op, B/op and allocs/op).
# bench-all is the full sweep.
bench:
	$(GO) test -run NONE -bench 'AccumFold|AccumMerge|RegistryFold|RegistryEstimates|DaemonEvidence|AggregatorEvidence|StepHTTP|SnapshotEncode|SnapshotDecode|BinRecEncode|BinRecDecode|ParseNginxLine|IngestNginx|IngestBin|IngestScaling|GateEval|StateTransition|ProxyRequest' \
		-benchmem ./internal/ope ./internal/harvestd ./internal/fleet ./internal/harvester ./internal/harvester/binrec ./internal/rollout ./internal/netlb | $(GO) run ./cmd/benchjson -o BENCH_harvestd.json
	@cat BENCH_harvestd.json

bench-all:
	$(GO) test -bench=. -benchmem ./...

# Serial-vs-parallel scaling of the deterministic replicate scheduler
# (fig3 + table2 replicate loops at workers = 1, 2, NumCPU).
bench-parallel:
	$(GO) test . -bench=BenchmarkHarvestAllParallel -run=NONE -benchtime=1x -count=3

# Regenerate every paper table/figure and the extension experiments.
experiments:
	$(GO) run ./cmd/harvest all

# Launch the live demo topology: lbd serves randomized-routing traffic and
# writes an access log; harvestd tails it and serves live counterfactual
# estimates. Ctrl-C stops both (harvestd checkpoints on the way down).
harvestd-demo:
	@rm -f /tmp/harvestd-demo.log && touch /tmp/harvestd-demo.log
	$(GO) run ./cmd/lbd -backends 2 -policy random -log /tmp/harvestd-demo.log -requests 0 & \
	trap 'kill %1 2>/dev/null' EXIT INT TERM; \
	sleep 1; \
	echo "live estimates: http://127.0.0.1:8347/estimates (metrics: /metrics)"; \
	$(GO) run ./cmd/harvestd -nginx /tmp/harvestd-demo.log -follow \
		-policies uniform,leastloaded,constant:0 \
		-checkpoint /tmp/harvestd-demo.ckpt

# Launch the federated demo topology: three harvestd shards over disjoint
# log slices, one harvestagg serving the merged fleet-wide estimates; kills
# and checkpoint-revives a shard along the way. Ctrl-C stops the fleet.
fleet-demo:
	sh scripts/fleet_demo.sh

# Launch the guarded-rollout demo topology: lbd serves live traffic through
# a retunable canary blend, harvestd tails a synthetic exploration log, and
# rolloutd walks leastloaded through shadow → canary → full, actuating
# lbd's /share admin endpoint at each gate. Headless; writes the gate audit
# trail to GATES_rolloutd.json and exits 0 — CI runs it as the rollout
# smoke test. See DESIGN.md §12.
rollout-demo:
	sh scripts/rollout_demo.sh

# Launch the rollout-demo topology with fleetwatch scraping every daemon:
# asserts all targets stay up, series flow, and zero alerts open on a
# healthy fleet, then validates the incident log with tracecat -incidents.
# Headless; writes the watcher state to ALERTS_fleetwatch.json and exits 0
# — CI runs it as the fleetwatch smoke test. See DESIGN.md §13.
fleetwatch-smoke:
	sh scripts/fleetwatch_smoke.sh

# Trace a quick fig3 run and validate/summarize the JSONL span trace:
# tracecat exits non-zero unless every line parses, IDs are unique, and
# every parent reference resolves.
trace-demo:
	$(GO) run ./cmd/harvest -quick -workers 2 -trace /tmp/harvest-fig3-trace.jsonl fig3
	$(GO) run ./cmd/tracecat /tmp/harvest-fig3-trace.jsonl

# Short fuzz pass over every fuzz target in the repository, FUZZTIME per
# target: the wire-format parsers, the RESP server's command dispatch, the
# substream seeder and the batch fold.
# FuzzParseNginxLine, FuzzParseNumber, FuzzBinRecDecode, FuzzRelayHead and
# FuzzFoldBatch are differential (against the regexp parser, against
# strconv, against the previous binrec record decoder, against net/http's
# request reader, and against the per-record Accum.Fold);
# FuzzServerDispatch reads input from outside the program. CI runs this beyond the seeds.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz=FuzzReadValue -fuzztime=$(FUZZTIME) ./internal/resp/
	$(GO) test -fuzz=FuzzCommandRoundTrip -fuzztime=$(FUZZTIME) ./internal/resp/
	$(GO) test -fuzz=FuzzServerDispatch -fuzztime=$(FUZZTIME) ./internal/resp/
	$(GO) test -fuzz=FuzzParseNginxLine -fuzztime=$(FUZZTIME) ./internal/harvester/
	$(GO) test -fuzz=FuzzParseNumber -fuzztime=$(FUZZTIME) ./internal/harvester/
	$(GO) test -fuzz=FuzzSubstream -fuzztime=$(FUZZTIME) ./internal/stats/
	$(GO) test -fuzz=FuzzBinRecDecode -fuzztime=$(FUZZTIME) ./internal/harvester/binrec/
	$(GO) test -fuzz=FuzzBinRecRoundTrip -fuzztime=$(FUZZTIME) ./internal/harvester/binrec/
	$(GO) test -fuzz=FuzzRelayHead -fuzztime=$(FUZZTIME) ./internal/netlb/
	$(GO) test -fuzz=FuzzFoldBatch -fuzztime=$(FUZZTIME) ./internal/harvestd/

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
