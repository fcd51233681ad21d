package harvestd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// compactJSON strips the indentation, so rows rendered at different nesting
// depths compare byte for byte.
func compactJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatalf("compacting %s: %v", raw, err)
	}
	return b.String()
}

// TestEvidenceConsistentUnderFolding reads /evidence while the daemon
// folds: every response must be one cut — both rows of a policy from the
// same accumulator, in request order, covering at least the fold count read
// with the watermark.
func TestEvidenceConsistentUnderFolding(t *testing.T) {
	d, srv := startTestDaemon(t, Config{})
	const posts, perPost = 40, 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < posts; i++ {
			resp, err := http.Post(srv.URL+"/ingest?format=nginx", "text/plain",
				strings.NewReader(genNginxLog(perPost, int64(100+i))))
			if err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			_ = resp.Body.Close()
		}
	}()
	names := []string{"leastloaded", "always-0"}
	reads, lastFolded := 0, int64(-1)
	for done := false; !done; reads++ {
		done = d.ctr.folded.Load() == posts*perPost
		code, body := get(t, srv.URL+"/evidence?policy="+strings.Join(names, ","))
		if code != 200 {
			t.Fatalf("/evidence = %d %s", code, body)
		}
		var ev Evidence
		if err := json.Unmarshal([]byte(body), &ev); err != nil {
			t.Fatalf("bad /evidence JSON: %v\n%s", err, body)
		}
		if ev.Version != EvidenceVersion || ev.Watermark == nil || len(ev.Policies) != len(names) {
			t.Fatalf("evidence = %+v, want version %d, a watermark and %d policies", ev, EvidenceVersion, len(names))
		}
		if ev.Stamp.Folded < lastFolded {
			t.Fatalf("stamp folded went back: %d after %d", ev.Stamp.Folded, lastFolded)
		}
		lastFolded = ev.Stamp.Folded
		for i, pe := range ev.Policies {
			if pe.Estimate.Policy != names[i] || pe.Diagnostics.Policy != names[i] {
				t.Fatalf("row %d is %q/%q, want %q", i, pe.Estimate.Policy, pe.Diagnostics.Policy, names[i])
			}
			if pe.Estimate.N != pe.Diagnostics.N {
				t.Fatalf("%s: estimate n=%d, diagnostics n=%d: not one accumulator", names[i], pe.Estimate.N, pe.Diagnostics.N)
			}
			if pe.Estimate.N < ev.Stamp.Folded {
				t.Fatalf("%s: n=%d behind the stamp's folded count %d", names[i], pe.Estimate.N, ev.Stamp.Folded)
			}
		}
	}
	wg.Wait()
	if reads < 2 {
		t.Fatalf("only %d read(s) overlapped the fold", reads)
	}
}

// TestEvidenceMatchesEstimatesWhenQuiesced pins the rows to the older
// endpoints: on a drained daemon a policy's /evidence estimate row is the
// bytes of its /estimates row, the diagnostics row those of /diagnostics,
// and the stamp and watermark account for every record.
func TestEvidenceMatchesEstimatesWhenQuiesced(t *testing.T) {
	d, srv := startTestDaemon(t, Config{})
	resp, err := http.Post(srv.URL+"/ingest?format=nginx", "text/plain", strings.NewReader(genNginxLog(300, 77)))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	waitFor(t, 10*time.Second, "folds", func() bool { return d.ctr.folded.Load() == 300 })

	var all []json.RawMessage
	_, body := get(t, srv.URL+"/estimates?delta=0.01")
	if err := json.Unmarshal([]byte(body), &all); err != nil {
		t.Fatal(err)
	}
	var diag struct {
		Policies []json.RawMessage `json:"policies"`
	}
	_, body = get(t, srv.URL+"/diagnostics")
	if err := json.Unmarshal([]byte(body), &diag); err != nil {
		t.Fatal(err)
	}
	// Registry order is always-0, always-1, leastloaded; ask for two, reversed.
	var ev struct {
		Watermark Watermark     `json:"watermark"`
		Stamp     EvidenceStamp `json:"stamp"`
		Policies  []struct {
			Estimate    json.RawMessage `json:"estimate"`
			Diagnostics json.RawMessage `json:"diagnostics"`
		} `json:"policies"`
	}
	code, body := get(t, srv.URL+"/evidence?policy=leastloaded,always-0&delta=0.01")
	if code != 200 {
		t.Fatalf("/evidence = %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Policies) != 2 {
		t.Fatalf("got %d policies, want 2", len(ev.Policies))
	}
	for i, idx := range []int{2, 0} {
		if got, want := compactJSON(t, ev.Policies[i].Estimate), compactJSON(t, all[idx]); got != want {
			t.Errorf("estimate row %d:\n got %s\nwant %s", i, got, want)
		}
		if got, want := compactJSON(t, ev.Policies[i].Diagnostics), compactJSON(t, diag.Policies[idx]); got != want {
			t.Errorf("diagnostics row %d:\n got %s\nwant %s", i, got, want)
		}
	}
	if ev.Stamp.Folded != 300 || ev.Watermark.Seq != 300 || ev.Watermark.Behind != 0 || ev.Watermark.AgeSeconds < 0 {
		t.Errorf("stamp %+v watermark %+v, want 300 folded, seq 300, none behind", ev.Stamp, ev.Watermark)
	}
}

func TestEvidenceBadRequests(t *testing.T) {
	_, srv := startTestDaemon(t, Config{})
	for _, q := range []string{"", "?policy=", "?policy=always-0,,always-1", "?policy=always-0,", "?policy=always-0&delta=2"} {
		if code, body := get(t, srv.URL+"/evidence"+q); code != http.StatusBadRequest {
			t.Errorf("/evidence%s = %d %q, want 400", q, code, body)
		}
	}
	code, body := get(t, srv.URL+"/evidence?policy=always-0,nope")
	if code != http.StatusNotFound || !strings.Contains(body, `"nope"`) {
		t.Errorf("unknown policy = %d %q, want 404 naming it", code, body)
	}
}
