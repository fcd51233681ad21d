package harvestd

// Benchmarks for the federation-relevant hot paths: registry fan-out (one
// datapoint scored under every candidate), and snapshot encode/decode (the
// per-pull wire cost). The accumulator's own fold and merge are
// BenchmarkAccumFold / BenchmarkAccumMerge in package ope. `make bench` runs
// these and emits BENCH_harvestd.json for CI trend tracking.

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/lbsim"
	"repro/internal/ope"
	"repro/internal/stats"
)

// benchDatapoints fabricates n valid datapoints for fold benchmarks.
func benchDatapoints(n int) []core.Datapoint {
	r := stats.NewRand(1)
	ds := make([]core.Datapoint, n)
	for i := range ds {
		conns := []int{r.Intn(8), r.Intn(8)}
		ds[i] = core.Datapoint{
			Context:    lbsim.BuildContext(conns, 0, 1),
			Action:     core.Action(r.Intn(2)),
			Reward:     0.002 + 0.003*r.Float64(),
			Propensity: 0.5,
		}
	}
	return ds
}

// benchRegistry is the three-candidate registry of the fold benchmarks.
func benchRegistry(b *testing.B) *Registry {
	b.Helper()
	reg, err := NewRegistry(1, 10)
	if err != nil {
		b.Fatal(err)
	}
	if err := reg.Register("always-0", constantAction(0)); err != nil {
		b.Fatal(err)
	}
	if err := reg.Register("always-1", constantAction(1)); err != nil {
		b.Fatal(err)
	}
	if err := reg.Register("leastloaded", lbsim.LeastLoaded{}); err != nil {
		b.Fatal(err)
	}
	return reg
}

// BenchmarkRegistryFold measures the full per-datapoint ingest cost: one
// datapoint scored and folded under three registered candidates — the
// batch-of-one price the text sources and the live tail pay.
func BenchmarkRegistryFold(b *testing.B) {
	reg := benchRegistry(b)
	ds := benchDatapoints(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Fold(0, &ds[i%len(ds)])
	}
}

// BenchmarkRegistryFoldBatch measures the batch fold per record (one op =
// one record): three candidates at batch sizes 1, 64 and 720; wide32 — the
// loop benchmark's wide-fold-read shape, 32 candidates over 8-upstream
// contexts in 720-record batches; nomiss32 — the same contexts and batches
// under uniform and 31 weighted-random candidates, which never miss, so
// skipping the misses cannot help; and policies={1,4,16,64} — the first n
// wideCandidates over the same contexts in 97-record batches, the size of
// that workload's binrec segments. The policies rows are the records/s-vs-
// candidates slope of this layer: what one more policy costs a record.
func BenchmarkRegistryFoldBatch(b *testing.B) {
	run := func(name string, reg *Registry, ds []core.Datapoint, batch int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				at := done % (len(ds) - batch + 1)
				n := min(batch, b.N-done)
				reg.FoldBatch(0, ds[at:at+n])
				done += n
			}
		})
	}
	ds := benchDatapoints(1024)
	for _, batch := range []int{1, 64, 720} {
		run(fmt.Sprint(batch), benchRegistry(b), ds, batch)
	}
	wide := wideDatapoints(1024, 1)
	run("wide32", newWideRegistry(b, 1), wide, 720)
	run("nomiss32", newNoMissRegistry(b), wide, 720)
	for _, n := range []int{1, 4, 16, 64} {
		names, pols := wideCandidates(n)
		run(fmt.Sprintf("policies=%d", n), newRegistryOf(b, names, pols), wide, 97)
	}
}

// BenchmarkRegistryEstimates measures the /estimates read path (one op =
// every policy merged across shards and rendered with its intervals) over
// three candidates and over wide32.
func BenchmarkRegistryEstimates(b *testing.B) {
	run := func(name string, reg *Registry, ds []core.Datapoint) {
		reg.FoldBatch(0, ds)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var out []ope.PolicyEstimate
			for i := 0; i < b.N; i++ {
				out = reg.Estimates(0.05)
			}
			if out[0].N != int64(len(ds)) {
				b.Fatalf("n = %d, want %d", out[0].N, len(ds))
			}
		})
	}
	run("k3", benchRegistry(b), benchDatapoints(1024))
	run("wide32", newWideRegistry(b, 1), wideDatapoints(1024, 1))
}

// BenchmarkDaemonEvidence is the shard-side twin of fleet's
// BenchmarkAggregatorEvidence: one op is what one rolloutd step costs
// harvestd (two policies' evidence from one snapshot, watermark first),
// with 3 and with 32 policies registered. The cost must follow the two
// arms read, not the policies registered.
func BenchmarkDaemonEvidence(b *testing.B) {
	run := func(name string, reg *Registry, ds []core.Datapoint) {
		reg.FoldBatch(0, ds)
		d, err := New(Config{Workers: 1}, reg)
		if err != nil {
			b.Fatal(err)
		}
		all := reg.Names()
		names := []string{all[1], all[0]}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, unknown := d.Evidence(names, 0.05); unknown != "" {
					b.Fatalf("policy %q unknown", unknown)
				}
			}
		})
	}
	run("k3", benchRegistry(b), benchDatapoints(1024))
	run("wide32", newWideRegistry(b, 1), wideDatapoints(1024, 1))
}

// constantAction is a minimal deterministic policy for benchmarks.
type constantAction core.Action

func (c constantAction) Act(*core.Context) core.Action { return core.Action(c) }

func benchSnapshot() *StateSnapshot {
	return &StateSnapshot{
		Version: SnapshotVersion,
		ShardID: "bench",
		Seq:     1,
		Clip:    3.0,
		Floor:   DefaultPropensityFloor,
		Counters: SnapshotCounters{
			Lines: 3000, Ingested: 3000, Folded: 3000,
		},
		Policies: map[string]ope.Accum{
			"always-0":    randomAccum(1, 1000),
			"always-1":    randomAccum(2, 1000),
			"leastloaded": randomAccum(3, 1000),
		},
	}
}

func BenchmarkSnapshotEncode(b *testing.B) {
	s := benchSnapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EncodeSnapshot(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, benchSnapshot()); err != nil {
		b.Fatal(err)
	}
	wire := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSnapshot(bytes.NewReader(wire)); err != nil {
			b.Fatal(err)
		}
	}
}
