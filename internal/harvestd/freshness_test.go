package harvestd

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/harvester"
	"repro/internal/obs"
)

// TestFreshnessMatchesOfflineRecompute is the acceptance check for the
// pipeline watermarks: feed a known log through a fixed-clock daemon,
// recompute the watermarks offline from the same records, and require the
// /freshness report to agree exactly. Under a fixed clock every
// ingest→fold lag is exactly zero, so the histogram sum must be zero and
// the quantiles must sit inside the first bucket.
func TestFreshnessMatchesOfflineRecompute(t *testing.T) {
	const n = 120
	logText := genNginxLog(n, 7)

	// Offline recompute: the per-line harvest the source performs, done by
	// hand. Every valid line yields one datapoint whose Seq is its 1-based
	// line number.
	var wantFolded, wantMaxSeq int64
	for i, line := range strings.Split(strings.TrimSpace(logText), "\n") {
		e, err := harvester.ParseNginxLine(line)
		if err != nil {
			continue
		}
		if _, ok, err := harvester.EntryToTypedDatapoint(e, 1); err == nil && ok {
			wantFolded++
			wantMaxSeq = int64(i + 1)
		}
	}
	if wantFolded == 0 {
		t.Fatal("offline recompute harvested nothing")
	}

	reg := newTestRegistry(t, 2)
	d, err := New(Config{Workers: 2, Clock: &obs.FixedClock{T: time.Unix(5000, 0)}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	d.AddSource(&NginxSource{R: strings.NewReader(logText)})
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
	waitFor(t, 10*time.Second, "folds", func() bool { return d.ctr.folded.Load() == wantFolded })

	rep := d.FreshnessNow()
	if rep.Version != FreshnessVersion {
		t.Errorf("version = %d, want %d", rep.Version, FreshnessVersion)
	}
	if len(rep.Sources) != 1 {
		t.Fatalf("sources = %d, want 1 (%+v)", len(rep.Sources), rep.Sources)
	}
	sf := rep.Sources[0]
	if sf.Source != "nginx:<reader>" {
		t.Errorf("source = %q", sf.Source)
	}
	if sf.Ingested != wantFolded || sf.Folded != wantFolded || sf.Behind != 0 {
		t.Errorf("ingested/folded/behind = %d/%d/%d, want %d/%d/0",
			sf.Ingested, sf.Folded, sf.Behind, wantFolded, wantFolded)
	}
	if sf.MaxSeqIngested != wantMaxSeq || sf.MaxSeqFolded != wantMaxSeq {
		t.Errorf("max seq ingested/folded = %d/%d, want %d",
			sf.MaxSeqIngested, sf.MaxSeqFolded, wantMaxSeq)
	}
	// Lag is sampled once per batch, and the nginx source emits one batch
	// per read: the whole log arrives in one. The fixed clock pins the lag
	// to zero.
	if sf.LagCount != 1 {
		t.Errorf("lag count = %d, want 1", sf.LagCount)
	}
	if sf.LagSumSeconds != 0 {
		t.Errorf("lag sum = %v, want 0", sf.LagSumSeconds)
	}
	if firstBucket := obs.DefLatencyBuckets()[0]; sf.LagP50Seconds > firstBucket || sf.LagP99Seconds > firstBucket {
		t.Errorf("lag quantiles p50=%v p99=%v exceed the first bucket %v",
			sf.LagP50Seconds, sf.LagP99Seconds, firstBucket)
	}
	if ms := time.Unix(5000, 0).UnixMilli(); sf.LastIngestUnixMilli != ms || sf.LastFoldUnixMilli != ms {
		t.Errorf("last ingest/fold = %d/%d, want %d", sf.LastIngestUnixMilli, sf.LastFoldUnixMilli, ms)
	}
	if rep.WatermarkSeq != wantMaxSeq {
		t.Errorf("watermark seq = %d, want %d", rep.WatermarkSeq, wantMaxSeq)
	}
	if rep.WatermarkAgeSeconds != 0 {
		t.Errorf("watermark age = %v, want 0 under a fixed clock", rep.WatermarkAgeSeconds)
	}
	if rep.Behind != 0 {
		t.Errorf("behind = %d, want 0 after drain", rep.Behind)
	}
}

// TestFreshnessEndpoint exercises the HTTP surface: the /freshness payload
// decodes back into a FreshnessReport, the push path appears as its own
// source, and two reads of unchanged state are byte-identical.
func TestFreshnessEndpoint(t *testing.T) {
	d, srv := startTestDaemon(t, Config{Clock: &obs.FixedClock{T: time.Unix(1000, 0)}})
	logText := genNginxLog(40, 9)
	for _, line := range strings.Split(strings.TrimSpace(logText), "\n") {
		e, err := harvester.ParseNginxLine(line)
		if err != nil {
			t.Fatal(err)
		}
		dp, ok, err := harvester.EntryToTypedDatapoint(e, 1)
		if err != nil || !ok {
			t.Fatalf("line unusable: %v", err)
		}
		if err := d.Ingest(dp); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "folds", func() bool { return d.ctr.folded.Load() == 40 })

	code, body := get(t, srv.URL+"/freshness")
	if code != 200 {
		t.Fatalf("freshness = %d", code)
	}
	var rep FreshnessReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad freshness JSON: %v\n%s", err, body)
	}
	if rep.Version != FreshnessVersion || rep.ShardID == "" {
		t.Errorf("version/shard = %d/%q", rep.Version, rep.ShardID)
	}
	if len(rep.Sources) != 1 || rep.Sources[0].Source != pushSourceName {
		t.Fatalf("sources = %+v, want one %q source", rep.Sources, pushSourceName)
	}
	if got := rep.Sources[0].Folded; got != 40 {
		t.Errorf("push folded = %d, want 40", got)
	}
	if _, again := get(t, srv.URL+"/freshness"); again != body {
		t.Errorf("freshness not byte-stable:\n%s\nvs\n%s", body, again)
	}
}

// TestFreshnessDrainsWorkerRejectedRecords is the regression test for the
// /freshness leak: a record that enters the queue unvalidated (binrec) and
// fails Validate in the worker has left the queue, so it must leave Behind,
// and the fold watermark must pass its Seq — otherwise one bad record pins a
// fully drained daemon at behind=1, watermark_seq < max_seq_ingested forever.
func TestFreshnessDrainsWorkerRejectedRecords(t *testing.T) {
	reg := newTestRegistry(t, 1)
	d, err := New(Config{Workers: 1, Clock: &obs.FixedClock{T: time.Unix(7000, 0)}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Shutdown(context.Background()) })

	pts := testDataset(2, 51)
	pts[0].Seq, pts[1].Seq = 1, 2
	pts[1].Propensity = 0 // the bad record carries the batch's highest Seq
	if err := d.sinkFor("bin:test").send(context.Background(), ingestBatch{pts: pts}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the batch to be accounted", func() bool {
		return d.ctr.folded.Load() == 1 && d.ctr.rejected.Load() == 1
	})

	rep := d.FreshnessNow()
	if len(rep.Sources) != 1 {
		t.Fatalf("sources = %+v, want one", rep.Sources)
	}
	sf := rep.Sources[0]
	if sf.Ingested != 2 || sf.Folded != 1 {
		t.Errorf("ingested/folded = %d/%d, want 2/1", sf.Ingested, sf.Folded)
	}
	if sf.Behind != 0 || rep.Behind != 0 || rep.QueueDepth != 0 {
		t.Errorf("behind = %d (source) / %d (report), queue depth %d; want 0 after drain",
			sf.Behind, rep.Behind, rep.QueueDepth)
	}
	if sf.MaxSeqIngested != 2 || sf.MaxSeqFolded != 2 || rep.WatermarkSeq != 2 {
		t.Errorf("max seq ingested/folded = %d/%d, watermark %d; want 2/2/2",
			sf.MaxSeqIngested, sf.MaxSeqFolded, rep.WatermarkSeq)
	}
}
