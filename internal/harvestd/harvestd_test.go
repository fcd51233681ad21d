package harvestd

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harvester"
	"repro/internal/lbsim"
	"repro/internal/policy"
	"repro/internal/stats"
)

// genNginxLog fabricates a netlb-style access log of n randomized-routing
// requests over two upstreams.
func genNginxLog(n int, seed int64) string {
	r := stats.NewRand(seed)
	var b strings.Builder
	for i := 0; i < n; i++ {
		conns := []int{r.Intn(8), r.Intn(8)}
		up := r.Intn(2)
		rt := 0.002 + 0.0005*float64(conns[up]) + 0.001*r.Float64()
		fmt.Fprintf(&b,
			"127.0.0.1:%d - - [06/Jul/2026:10:30:00 +0000] \"GET /r/%d HTTP/1.1\" 200 42 \"-\" \"t\" rt=%.6f upstream=%d conns=%d|%d prop=0.500000\n",
			1000+i, i, rt, up, conns[0], conns[1])
	}
	return b.String()
}

// newTestRegistry builds the standard candidate set used across tests.
func newTestRegistry(t *testing.T, workers int) *Registry {
	t.Helper()
	reg, err := NewRegistry(workers, 10)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 2; a++ {
		if err := reg.Register(fmt.Sprintf("always-%d", a), policy.Constant{A: core.Action(a)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Register("leastloaded", lbsim.LeastLoaded{}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// sendDecoded queues pts through sink as one batch, already decoded: the
// way to put exactly these records in one batch.
func sendDecoded(ctx context.Context, sink *Sink, pts []core.Datapoint) error {
	b := &decoded{pts: pts}
	return sink.send(ctx, ingestBatch{raw: b, home: &b.home, queued: int64(len(pts))})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDaemonIngestsConcurrentSources runs two sources and the in-process
// feed into one 4-worker pool. The sources are pooled raw readers (access
// log, binrec packed into 1 KiB segments), both woken by the workers'
// releases and, with no more Ps than workers, yielded to; Ingest queues
// one record a batch alongside them.
func TestDaemonIngestsConcurrentSources(t *testing.T) {
	logText := genNginxLog(500, 21)
	pushDS := testDataset(400, 22)
	binDS := testDataset(300, 23)
	binWire := encodeBin(t, binDS, 1024)

	reg := newTestRegistry(t, 4)
	d, err := New(Config{Workers: 4, QueueSize: 64, Clip: 10}, reg)
	if err != nil {
		t.Fatal(err)
	}
	d.AddSource(&NginxSource{R: strings.NewReader(logText)})
	d.AddSource(&BinSource{R: bytes.NewReader(binWire)})
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	for i := range pushDS {
		if err := d.Ingest(pushDS[i]); err != nil {
			t.Fatal(err)
		}
	}

	// The nginx log harvests all 500 lines (all 2xx with propensities);
	// Ingest contributes 400 more and the binrec set 300.
	// (The folded counter, not TotalN: it moves after every policy has the
	// batch, TotalN reads the first policy only.)
	waitFor(t, 10*time.Second, "ingest to complete", func() bool {
		return d.ctr.folded.Load() == 1200
	})
	if errs := d.SourceErrors(); len(errs) != 0 {
		t.Fatalf("source errors: %v", errs)
	}

	// The daemon's estimate must agree exactly (modulo FP summation order)
	// with folding the same multiset of datapoints directly.
	entries, err := harvester.ScavengeNginx(strings.NewReader(logText))
	if err != nil {
		t.Fatal(err)
	}
	nginxDS, skipped, err := harvester.NginxToDataset(entries)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("generator produced %d skippable lines", skipped)
	}
	all := append(append(append(core.Dataset{}, nginxDS...), pushDS...), binDS...)
	pol := lbsim.LeastLoaded{}
	want := foldAll(t, all, pol, 10).Estimate("leastloaded", 0.05)
	got, ok := reg.Estimate("leastloaded", 0.05)
	if !ok {
		t.Fatal("leastloaded not registered")
	}
	if got.N != want.N {
		t.Fatalf("n = %d, want %d", got.N, want.N)
	}
	if math.Abs(got.IPS.Value-want.IPS.Value) > 1e-9 ||
		math.Abs(got.SNIPS.Value-want.SNIPS.Value) > 1e-9 ||
		math.Abs(got.ClippedIPS.Value-want.ClippedIPS.Value) > 1e-9 {
		t.Errorf("daemon estimate %+v != direct fold %+v", got, want)
	}
}

func TestDaemonShutdownDrainsInFlight(t *testing.T) {
	reg := newTestRegistry(t, 2)
	d, err := New(Config{Workers: 2, QueueSize: 256}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ds := testDataset(200, 31)
	for i := range ds {
		if err := d.Ingest(ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Shutdown must fold everything still queued before returning.
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.TotalN(); got != 200 {
		t.Errorf("drained %d of 200 datapoints", got)
	}
	if err := d.Ingest(ds[0]); err == nil {
		t.Error("ingest after shutdown should fail")
	}
}

// TestDaemonRejectsInvalidDatapoints: an Ingest-fed daemon books each
// record as a line, so lines = folded + rejected holds there as on every
// other path, and an invalid record never reaches the estimators.
func TestDaemonRejectsInvalidDatapoints(t *testing.T) {
	reg := newTestRegistry(t, 1)
	d, err := New(Config{Workers: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	bad := core.Datapoint{ // propensity out of range
		Context:    lbsim.BuildContext([]int{1, 2}, 0, 1),
		Action:     0,
		Reward:     1,
		Propensity: 1.5,
	}
	good := testDataset(4, 32)
	pts := []core.Datapoint{good[0], good[1], bad, good[2], good[3]}
	for i := range pts {
		if err := d.Ingest(pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	k := int64(len(pts))
	waitFor(t, 5*time.Second, "every record booked", func() bool {
		return d.ctr.folded.Load()+d.ctr.rejected.Load() == k
	})
	if got := ingestCounters(d); got != (tally{lines: k, ingested: k, rejected: 1}) {
		t.Errorf("counters %+v, want %d lines, all ingested, one rejected", got, k)
	}
	if got := d.ctr.folded.Load(); got != k-1 || reg.TotalN() != k-1 {
		t.Errorf("folded %d, registry holds %d, want %d: the invalid datapoint must not reach the estimators", got, reg.TotalN(), k-1)
	}
}

// TestWorkerFoldsExactlyTheValidRecords feeds the worker batches with
// invalid records at the head, in the middle (alone and adjacent) and at the
// tail: the registry must hold exactly the fold of the valid records in
// order, and folded/rejected must split the batch.
func TestWorkerFoldsExactlyTheValidRecords(t *testing.T) {
	reg := newTestRegistry(t, 1)
	d, err := New(Config{Workers: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())

	ds := testDataset(60, 41) // three upstreams; newTestRegistry's policies act on the first two
	invalid := map[int]bool{0: true, 1: true, 20: true, 33: true, 34: true, 59: true}
	for i := range ds {
		if !invalid[i] {
			continue
		}
		if i%2 == 0 {
			ds[i].Propensity = 0
		} else {
			ds[i].Action = core.Action(ds[i].Context.NumActions)
		}
	}
	allBad := []core.Datapoint{ds[0], ds[1]}
	sink := d.sinkFor("test")
	for _, pts := range [][]core.Datapoint{ds, allBad} {
		if err := sendDecoded(context.Background(), sink, pts); err != nil {
			t.Fatal(err)
		}
	}
	wantRejected := int64(len(invalid) + len(allBad))
	wantFolded := int64(len(ds) - len(invalid))
	waitFor(t, 5*time.Second, "counters", func() bool {
		return d.ctr.folded.Load() == wantFolded && d.ctr.rejected.Load() == wantRejected
	})

	var valid core.Dataset
	for i := range ds {
		if !invalid[i] {
			valid = append(valid, ds[i])
		}
	}
	want := foldAll(t, valid, lbsim.LeastLoaded{}, 10)
	if got := reg.exportState(nil)["leastloaded"]; got != *want {
		t.Errorf("leastloaded state\n got %+v\nwant %+v", got, *want)
	}
	for _, pe := range reg.Estimates(0.05) {
		if pe.N != wantFolded {
			t.Errorf("%s: N = %d, want %d", pe.Policy, pe.N, wantFolded)
		}
	}
}

// TestDaemonConcurrentIngestAndScrape is the package's -race workout: ≥4
// ingestion workers fold while writers hammer Ingest, a goroutine registers
// policies mid-stream, and readers scrape the live HTTP API.
func TestDaemonConcurrentIngestAndScrape(t *testing.T) {
	reg := newTestRegistry(t, 4)
	d, err := New(Config{Workers: 4, QueueSize: 128, Addr: "127.0.0.1:0"}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := d.URL()

	const writers, perWriter = 4, 250
	ds := testDataset(1000, 41)
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := d.Ingest(ds[wr*perWriter+i]); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(wr)
	}
	// Register a policy while ingestion is in full swing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := reg.Register("latecomer", policy.Constant{A: 0}); err != nil {
			t.Errorf("register: %v", err)
		}
	}()
	// Scrape the API concurrently.
	for sc := 0; sc < 2; sc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, path := range []string{"/estimates", "/metrics", "/healthz"} {
					resp, err := http.Get(base + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, 10*time.Second, "all folds", func() bool {
		return reg.TotalN() == writers*perWriter
	})
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The latecomer saw only a suffix of the stream.
	late, ok := reg.Estimate("latecomer", 0.05)
	if !ok {
		t.Fatal("latecomer missing")
	}
	if late.N > int64(writers*perWriter) {
		t.Errorf("latecomer n = %d", late.N)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil registry should fail")
	}
	reg, err := NewRegistry(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Workers: 8}, reg); err == nil {
		t.Error("more workers than shards should fail")
	}
	if _, err := NewRegistry(0, 0); err == nil {
		t.Error("zero shards should fail")
	}
}

func TestRegistryValidation(t *testing.T) {
	reg, err := NewRegistry(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("", policy.Constant{A: 0}); err == nil {
		t.Error("empty name should fail")
	}
	if err := reg.Register("p", nil); err == nil {
		t.Error("nil policy should fail")
	}
	if err := reg.Register("p", policy.Constant{A: 0}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("p", policy.Constant{A: 1}); err == nil {
		t.Error("duplicate name should fail")
	}
	if _, ok := reg.Estimate("nope", 0.05); ok {
		t.Error("unknown policy should report !ok")
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "p" {
		t.Errorf("names = %v", names)
	}
}
