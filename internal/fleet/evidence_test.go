package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/harvestd"
)

// foldingShard is a fake shard that folds ten more records after every
// request it answers: /freshness and /snapshot each describe the first n
// records (watermark_seq n, every policy at N = n), then n grows.
type foldingShard struct {
	mu sync.Mutex
	n  int
}

func (fs *foldingShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	switch r.URL.Path {
	case "/freshness":
		_ = json.NewEncoder(w).Encode(harvestd.FreshnessReport{
			Version: harvestd.FreshnessVersion, ShardID: "shard-a", WatermarkSeq: int64(fs.n),
		})
	case "/snapshot":
		_ = harvestd.EncodeSnapshot(w, testSnap("shard-a", int64(fs.n), 10, fs.n))
	default:
		http.NotFound(w, r)
		return
	}
	fs.n += 10
}

// TestPullWatermarkNeverAheadOfSnapshot pins the pull order: with a shard
// that folds between the aggregator's two requests, the fleet watermark may
// trail the merged estimates but never lead them.
func TestPullWatermarkNeverAheadOfSnapshot(t *testing.T) {
	srv := httptest.NewServer(&foldingShard{n: 100})
	defer srv.Close()
	a, err := New(Config{Shards: []Shard{{Name: "shard-a", URL: srv.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	for pull := 0; pull < 3; pull++ {
		if err := a.PullAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		ev, unknown := a.Evidence([]string{"uniform"}, 0.05)
		if unknown != "" {
			t.Fatalf("policy %q unknown", unknown)
		}
		n := ev.Policies[0].Estimate.N
		if wm := a.Freshness().WatermarkSeq; wm > n || ev.Watermark.Seq != wm {
			t.Fatalf("pull %d: watermark seq %d (evidence says %d) over estimates of n=%d", pull, wm, ev.Watermark.Seq, n)
		}
		if ev.Stamp.Folded > n {
			t.Fatalf("pull %d: stamp folded %d over n=%d", pull, ev.Stamp.Folded, n)
		}
	}
}

// TestAggregatorEvidenceConsistentUnderFolding reads the aggregator's
// /evidence while its one shard folds and a puller keeps re-installing
// snapshots: every response is one cut of the shard set. The shard runs one
// worker, so its watermark is a strict prefix claim and N ≥ watermark holds
// record for record.
func TestAggregatorEvidenceConsistentUnderFolding(t *testing.T) {
	d, err := harvestd.New(harvestd.Config{Workers: 1, Clip: 10, Addr: "127.0.0.1:0", ShardID: "shard-a"}, e2eRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Shutdown(context.Background()) }()
	a, err := New(Config{Shards: []Shard{{Name: "shard-a", URL: d.URL()}}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(a.handler())
	defer srv.Close()
	if err := a.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	const total = 4000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the shard folds
		defer wg.Done()
		for i, dp := range dyadicDataset(total, 5) {
			dp.Seq = int64(i + 1)
			if err := d.Ingest(dp); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	go func() { // the aggregator pulls
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := a.PullAll(context.Background()); err != nil {
				t.Errorf("pull: %v", err)
				return
			}
		}
	}()

	names := []string{"leastloaded", "always-1"}
	var last int64
	for reads := 0; last < total; reads++ {
		if reads > 1e6 {
			t.Fatal("evidence never covered the whole stream")
		}
		code, body := getBody(t, srv.URL+"/evidence?policy="+strings.Join(names, ","))
		if code != 200 {
			t.Fatalf("/evidence = %d %s", code, body)
		}
		var ev harvestd.Evidence
		if err := json.Unmarshal([]byte(body), &ev); err != nil {
			t.Fatalf("bad /evidence JSON: %v\n%s", err, body)
		}
		if ev.Version != harvestd.EvidenceVersion || ev.Watermark == nil || len(ev.Policies) != 2 ||
			ev.Stamp.LiveShards != 1 || ev.Stamp.TotalShards != 1 {
			t.Fatalf("evidence = %+v", ev)
		}
		for i, pe := range ev.Policies {
			if pe.Estimate.Policy != names[i] || pe.Estimate.N != pe.Diagnostics.N {
				t.Fatalf("row %d: estimate %s n=%d, diagnostics %s n=%d", i,
					pe.Estimate.Policy, pe.Estimate.N, pe.Diagnostics.Policy, pe.Diagnostics.N)
			}
			if pe.Estimate.N < ev.Stamp.Folded || pe.Estimate.N < ev.Watermark.Seq {
				t.Fatalf("%s: n=%d behind stamp folded %d / watermark seq %d",
					names[i], pe.Estimate.N, ev.Stamp.Folded, ev.Watermark.Seq)
			}
		}
		last = ev.Policies[0].Estimate.N
	}
	close(stop)
	wg.Wait()
}

// TestAggregatorEvidenceContract pins the quiesced payload to /estimates and
// /diagnostics byte for byte, and the 400/404 answers.
func TestAggregatorEvidenceContract(t *testing.T) {
	sa := freshSnapServer(t, testSnap("shard-a", 1, 10, 200), &harvestd.FreshnessReport{
		Version: harvestd.FreshnessVersion, ShardID: "shard-a", WatermarkSeq: 180, WatermarkAgeSeconds: 0.5, Behind: 20,
	})
	sb := freshSnapServer(t, testSnap("shard-b", 1, 20, 300), nil)
	a, err := New(Config{Shards: []Shard{{Name: "shard-a", URL: sa.URL}, {Name: "shard-b", URL: sb.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	compact := func(raw json.RawMessage) string {
		var b bytes.Buffer
		if err := json.Compact(&b, raw); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	var ests []json.RawMessage // sorted: leastloaded, uniform
	_, body := getBody(t, srv.URL+"/estimates")
	if err := json.Unmarshal([]byte(body), &ests); err != nil {
		t.Fatal(err)
	}
	var diag struct {
		Policies []json.RawMessage `json:"policies"`
	}
	_, body = getBody(t, srv.URL+"/diagnostics")
	if err := json.Unmarshal([]byte(body), &diag); err != nil {
		t.Fatal(err)
	}
	var ev struct {
		Watermark harvestd.Watermark     `json:"watermark"`
		Stamp     harvestd.EvidenceStamp `json:"stamp"`
		Policies  []struct {
			Estimate    json.RawMessage `json:"estimate"`
			Diagnostics json.RawMessage `json:"diagnostics"`
		} `json:"policies"`
	}
	code, body := getBody(t, srv.URL+"/evidence?policy=uniform,leastloaded")
	if code != 200 {
		t.Fatalf("/evidence = %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Policies) != 2 {
		t.Fatalf("got %d policies, want 2", len(ev.Policies))
	}
	for i, idx := range []int{1, 0} {
		if got, want := compact(ev.Policies[i].Estimate), compact(ests[idx]); got != want {
			t.Errorf("estimate row %d:\n got %s\nwant %s", i, got, want)
		}
		if got, want := compact(ev.Policies[i].Diagnostics), compact(diag.Policies[idx]); got != want {
			t.Errorf("diagnostics row %d:\n got %s\nwant %s", i, got, want)
		}
	}
	wantStamp := harvestd.EvidenceStamp{Folded: 500, LiveShards: 2, TotalShards: 2}
	if ev.Stamp != wantStamp || ev.Watermark.Seq != 180 || ev.Watermark.Behind != 20 {
		t.Errorf("stamp %+v watermark %+v, want %+v, seq 180, 20 behind", ev.Stamp, ev.Watermark, wantStamp)
	}

	for _, q := range []string{"", "?policy=", "?policy=uniform,,leastloaded", "?policy=uniform&delta=0"} {
		if code, body := getBody(t, srv.URL+"/evidence"+q); code != http.StatusBadRequest {
			t.Errorf("/evidence%s = %d %q, want 400", q, code, body)
		}
	}
	code, body = getBody(t, srv.URL+"/evidence?policy=uniform,nope")
	if code != http.StatusNotFound || !strings.Contains(body, `"nope"`) {
		t.Errorf("unknown policy = %d %q, want 404 naming it", code, body)
	}
}
