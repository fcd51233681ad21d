package harvestd

// End-to-end ingest benchmarks: one op pushes ingestBenchRecords records
// from an in-memory source through the worker queue, parse/decode and the
// estimator fold, waiting until the last record lands. `make bench` emits
// them into BENCH_harvestd.json: IngestBin and IngestNginx are the two batch
// paths (pooled raw buffers, one queue send per segment or read, decoded by
// the workers). IngestScaling is the batch paths again at 16 times the
// records per op, with one worker and with two, binrec on both shapes.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/lbsim"
	"repro/internal/policy"
)

const ingestBenchRecords = 4096

// benchDaemon builds a running daemon with the standard candidate set and no
// attached sources; the benchmark drives Source.Run directly.
func benchDaemon(b *testing.B, workers int) *Daemon {
	b.Helper()
	reg, err := NewRegistry(workers, 10)
	if err != nil {
		b.Fatal(err)
	}
	for a := 0; a < 2; a++ {
		if err := reg.Register(fmt.Sprintf("always-%d", a), policy.Constant{A: core.Action(a)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := reg.Register("leastloaded", lbsim.LeastLoaded{}); err != nil {
		b.Fatal(err)
	}
	return benchDaemonOn(b, reg)
}

// benchDaemonOn is benchDaemon over a caller-built registry, a worker a shard.
func benchDaemonOn(b *testing.B, reg *Registry) *Daemon {
	b.Helper()
	d, err := New(Config{Workers: reg.NumShards(), Clip: 10}, reg)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = d.Shutdown(context.Background()) })
	return d
}

// benchIngest runs the wire bytes, records records, through makeSrc once per
// op and blocks until every record of the op has been folded.
func benchIngest(b *testing.B, d *Daemon, wire []byte, records int64, makeSrc func(io.Reader) Source) {
	b.Helper()
	ctx := context.Background()
	sink := &Sink{d: d}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := makeSrc(bytes.NewReader(wire))
		if err := src.Run(ctx, sink); err != nil {
			b.Fatal(err)
		}
		target := int64(i+1) * records
		for d.ctr.folded.Load() < target {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	if got := d.ctr.folded.Load(); got != int64(b.N)*records {
		b.Fatalf("folded %d records, want %d", got, int64(b.N)*records)
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkIngestNginx(b *testing.B) {
	wire := []byte(genNginxLog(ingestBenchRecords, 1))
	benchIngest(b, benchDaemon(b, 2), wire, ingestBenchRecords, func(r io.Reader) Source {
		return &NginxSource{R: r}
	})
}

// BenchmarkIngestBin is the binary path end to end — whole CRC-checked
// segments per queue send, decoded by the workers into their own batches, a
// handful of allocations per Run and none per segment or record — on the
// narrow shape (k3: three candidates, 2-upstream contexts) and on the loop
// benchmark's wide one (wide32: 32 candidates, 8 upstreams).
func BenchmarkIngestBin(b *testing.B) {
	// A fresh daemon per b.Run invocation: benchIngest counts folds from zero.
	run := func(name string, daemon func(*testing.B) *Daemon, ds []core.Datapoint) {
		wire := encodeBin(b, ds, 0)
		b.Run(name, func(b *testing.B) {
			benchIngest(b, daemon(b), wire, ingestBenchRecords, func(r io.Reader) Source {
				return &BinSource{R: r}
			})
		})
	}
	run("k3", func(b *testing.B) *Daemon { return benchDaemon(b, 2) }, benchDatapoints(ingestBenchRecords))
	run("wide32", func(b *testing.B) *Daemon { return benchDaemonOn(b, newWideRegistry(b, 2)) },
		wideDatapoints(ingestBenchRecords, 1))
}

// BenchmarkIngestScaling is the two batch paths at 64 Ki records an op, with
// one worker and with two: what the second core buys — on the narrow shape,
// and for binrec also on IngestBin's wide32 one (bin-wide32), the shape of
// the loop benchmark's wide-fold-read. At IngestNginx's and
// IngestBin's 4096 records a Run is over in a millisecond or four, and its
// warm-up — the free list and its buffers, their first touch, the garbage of
// the op before — is a sixth of the samples; here it is noise.
func BenchmarkIngestScaling(b *testing.B) {
	const records = 64 * 1024
	nginx := func(r io.Reader) Source { return &NginxSource{R: r} }
	bin := func(r io.Reader) Source { return &BinSource{R: r} }
	wide := func(b *testing.B, workers int) *Daemon { return benchDaemonOn(b, newWideRegistry(b, workers)) }
	for _, f := range []struct {
		name   string
		wire   []byte
		src    func(io.Reader) Source
		daemon func(*testing.B, int) *Daemon
	}{
		{"nginx", []byte(genNginxLog(records, 1)), nginx, benchDaemon},
		{"bin", encodeBin(b, benchDatapoints(records), 0), bin, benchDaemon},
		{"bin-wide32", encodeBin(b, wideDatapoints(records, 1), 0), bin, wide},
	} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", f.name, workers), func(b *testing.B) {
				benchIngest(b, f.daemon(b, workers), f.wire, records, f.src)
			})
		}
	}
}
