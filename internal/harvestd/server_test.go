package harvestd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harvester"
	"repro/internal/lbsim"
	"repro/internal/obs"
	"repro/internal/ope"
	"repro/internal/policy"
)

// startTestDaemon brings up a daemon (no listener) and an httptest server
// over its handler, both cleaned up with the test.
func startTestDaemon(t *testing.T, cfg Config) (*Daemon, *httptest.Server) {
	t.Helper()
	reg := newTestRegistry(t, 2)
	cfg.Workers = 2
	d, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
	srv := httptest.NewServer(d.handler())
	t.Cleanup(srv.Close)
	return d, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerHealthz(t *testing.T) {
	_, srv := startTestDaemon(t, Config{})
	code, body := get(t, srv.URL+"/healthz")
	if code != 200 || !strings.HasPrefix(body, "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}
}

func TestServerIngestAndEstimates(t *testing.T) {
	d, srv := startTestDaemon(t, Config{})
	logText := genNginxLog(100, 51)

	resp, err := http.Post(srv.URL+"/ingest?format=nginx", "text/plain", strings.NewReader(logText))
	if err != nil {
		t.Fatal(err)
	}
	var summary map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if summary["ingested"] != 100 || summary["lines"] != 100 {
		t.Fatalf("ingest summary = %v", summary)
	}

	waitFor(t, 10*time.Second, "folds", func() bool { return d.ctr.folded.Load() == 100 })

	// Full listing.
	code, body := get(t, srv.URL+"/estimates")
	if code != 200 {
		t.Fatalf("estimates = %d", code)
	}
	var ests []ope.PolicyEstimate
	if err := json.Unmarshal([]byte(body), &ests); err != nil {
		t.Fatalf("bad estimates JSON: %v\n%s", err, body)
	}
	if len(ests) != 3 {
		t.Fatalf("got %d estimates", len(ests))
	}
	for _, pe := range ests {
		if pe.N != 100 {
			t.Errorf("%s n = %d", pe.Policy, pe.N)
		}
		if pe.IPS.Lo > pe.IPS.Value || pe.IPS.Hi < pe.IPS.Value {
			t.Errorf("%s interval [%v,%v] excludes point %v", pe.Policy, pe.IPS.Lo, pe.IPS.Hi, pe.IPS.Value)
		}
	}

	// Single-policy filter with a custom delta widens the interval.
	code, body = get(t, srv.URL+"/estimates?policy=always-0&delta=0.001")
	if code != 200 {
		t.Fatalf("filtered estimates = %d", code)
	}
	var one ope.PolicyEstimate
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatal(err)
	}
	wide := one.IPS.Hi - one.IPS.Lo
	narrow := ests[0].IPS.Hi - ests[0].IPS.Lo
	if one.Policy != "always-0" || wide <= narrow {
		t.Errorf("delta=0.001 interval %v should exceed default %v", wide, narrow)
	}

	if code, _ := get(t, srv.URL+"/estimates?policy=nope"); code != 404 {
		t.Errorf("unknown policy = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/estimates?delta=2"); code != 400 {
		t.Errorf("bad delta = %d, want 400", code)
	}
}

// failingBody yields data once, then cancels the request and fails the read.
type failingBody struct {
	data   string
	cancel context.CancelFunc
}

func (b *failingBody) Read(p []byte) (int, error) {
	if b.data == "" {
		b.cancel()
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

// ingestCounters reads the daemon's ingest counters as one tally.
func ingestCounters(d *Daemon) tally {
	return tally{lines: d.ctr.lines.Load(), ingested: d.ctr.ingested.Load(), rejected: d.ctr.rejected.Load(), parseErrors: d.ctr.parseErrors.Load()}
}

// TestServerIngestTypedLikeSource: Config.NumTypes types a log pushed to
// POST /ingest?format=nginx as it types the same log read by an
// NginxSource. Of the three lines, typed 1, untyped and typed out of range,
// both paths fold the first and reject the other two, and /estimates reads
// the same.
func TestServerIngestTypedLikeSource(t *testing.T) {
	const line = `127.0.0.1:1 - - [06/Jul/2026:10:30:00 +0000] "GET /r HTTP/1.1" 200 42 "-" "t" rt=0.004 upstream=0 conns=1|2 prop=0.500000`
	logText := line + " type=1\n" + line + "\n" + line + " type=5\n"
	cfg := Config{Workers: 2, NumTypes: 3}

	src, err := New(cfg, newTestRegistry(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	src.AddSource(&NginxSource{R: strings.NewReader(logText)})
	if err := src.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = src.Shutdown(context.Background()) })
	waitFor(t, 10*time.Second, "the source's lines", func() bool { return src.ctr.lines.Load() == 3 })

	pushed, srv := startTestDaemon(t, cfg)
	resp, err := http.Post(srv.URL+"/ingest?format=nginx", "text/plain", strings.NewReader(logText))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %s", resp.Status)
	}

	want := tally{lines: 3, ingested: 1, rejected: 2}
	for name, d := range map[string]*Daemon{"source": src, "push": pushed} {
		if got := ingestCounters(d); got != want || d.ctr.folded.Load() != 1 {
			t.Errorf("%s: counters %+v, folded %d; want %+v, 1 folded", name, got, d.ctr.folded.Load(), want)
		}
	}
	if got, want := asJSON(t, pushed.Estimates()), asJSON(t, src.Estimates()); got != want {
		t.Errorf("/estimates of the pushed log differ from the source's:\n got  %s\n want %s", got, want)
	}
}

// TestServerIngestNginxEdges pins the push path where it differs from a
// file source least visibly: Seq is the physical line number of the body
// (blank lines count), a body that fails to read is the client's 400 even
// when its context is gone, and only a daemon that refuses the batch is 503.
func TestServerIngestNginxEdges(t *testing.T) {
	d, srv := startTestDaemon(t, Config{})
	lines := strings.Split(strings.TrimSpace(genNginxLog(3, 53)), "\n")
	body := lines[0] + "\n\n \t\n" + lines[1] + "\n\n" + lines[2] // lines 1, 4 and 6
	resp, err := http.Post(srv.URL+"/ingest?format=nginx", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var summary map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if summary["lines"] != 3 || summary["ingested"] != 3 {
		t.Fatalf("ingest summary = %v, want 3 lines ingested", summary)
	}
	waitFor(t, 10*time.Second, "folds", func() bool { return d.ctr.folded.Load() == 3 })
	rep := d.FreshnessNow()
	if len(rep.Sources) != 1 || rep.Sources[0].MaxSeqIngested != 6 || rep.Sources[0].MaxSeqFolded != 6 {
		t.Errorf("freshness sources = %+v, want max seq 6: the last record is on body line 6", rep.Sources)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/ingest?format=nginx", &failingBody{data: lines[0] + "\n", cancel: cancel}).WithContext(ctx)
	rec := httptest.NewRecorder()
	d.handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("failed body read under a cancelled context = %d, want 400", rec.Code)
	}

	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := ingestCounters(d)
	for _, push := range []struct{ format, body string }{{"nginx", lines[0] + "\n"}, {"bin", string(encodeBin(t, testDataset(3, 54), 0))}} {
		resp, err = http.Post(srv.URL+"/ingest?format="+push.format, "text/plain", strings.NewReader(push.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s ingest into a stopped daemon = %d, want 503", push.format, resp.StatusCode)
		}
		if got := ingestCounters(d); got != before {
			t.Errorf("%s ingest into a stopped daemon moved the counters: %+v, want %+v", push.format, got, before)
		}
	}
}

// TestServerIngestReplyCountsWhatWasFolded: a push body is queued raw and
// parsed by the workers, and the reply still gives exact counts — the ones
// the /metrics counters moved by, a record the worker's validation turned
// away included — and is given only once every record of the body is folded.
func TestServerIngestReplyCountsWhatWasFolded(t *testing.T) {
	// Several reads' worth of access log with every kind of line, plus one
	// that parses and cannot be folded (a propensity above 1).
	lines := strings.SplitAfter(messyNginxLog(1500, 91), "\n")
	lines[700] = strings.Replace(lines[700], "prop=0.500000", "prop=1.500000", 1)
	// Many segments, some records invalid in each.
	ds := benchDatapoints(2000)
	invalid := 0
	for i := range ds {
		ds[i].Seq = int64(i + 1)
		switch {
		case i%7 == 3:
			ds[i].Propensity, invalid = 0, invalid+1
		case i%11 == 5:
			ds[i].Action, invalid = 2, invalid+1
		}
	}
	for format, body := range map[string][]byte{
		"nginx": []byte(strings.Join(lines, "")),
		"bin":   encodeBin(t, ds, 2048),
	} {
		d, srv := startTestDaemon(t, Config{})
		resp, err := http.Post(srv.URL+"/ingest?format="+format, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]int64
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// Read at once: the reply says folded, so nothing is waited for.
		folded, totalN := d.ctr.folded.Load(), d.reg.TotalN()
		counted := map[string]int64{
			"lines": d.ctr.lines.Load(), "ingested": d.ctr.ingested.Load(),
			"rejected": d.ctr.rejected.Load(), "parse_errors": d.ctr.parseErrors.Load(),
		}
		if !reflect.DeepEqual(got, counted) {
			t.Errorf("%s: reply %v, counters moved by %v", format, got, counted)
		}
		if folded != totalN || folded == 0 {
			t.Errorf("%s: folded counter %d, registry holds %d", format, folded, totalN)
		}
		if rep := d.FreshnessNow(); rep.Behind != 0 || rep.QueueDepth != 0 {
			t.Errorf("%s: behind %d, queue depth %d when the reply arrived", format, rep.Behind, rep.QueueDepth)
		}
		switch format {
		case "nginx":
			// Every line is parsed and found unparseable, rejected by the
			// parser, or ingested; the worker rejects one ingested record.
			if got["parse_errors"] < 50 || got["lines"] != got["ingested"]+got["parse_errors"]+got["rejected"]-1 || folded != got["ingested"]-1 {
				t.Errorf("nginx: reply %v with %d folded does not add up", got, folded)
			}
		case "bin":
			want := map[string]int64{"lines": 2000, "ingested": 2000, "rejected": int64(invalid), "parse_errors": 0}
			if !reflect.DeepEqual(got, want) || folded != int64(2000-invalid) {
				t.Errorf("bin: reply %v with %d folded, want %v with %d", got, folded, want, 2000-invalid)
			}
		}
	}
}

// TestServerIngestJSONLAndRejects: a JSONL push, like any format the
// daemon does not take, is a 400 before any counter moves (a JSONL dataset
// is packed with recconv and pushed as bin), and a GET is a 405.
func TestServerIngestJSONLAndRejects(t *testing.T) {
	d, srv := startTestDaemon(t, Config{})
	for _, format := range []string{"martian", "jsonl"} {
		resp, err := http.Post(srv.URL+"/ingest?format="+format, "text/plain", strings.NewReader("x\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("format %s = %d, want 400", format, resp.StatusCode)
		}
		if got := ingestCounters(d); got != (tally{}) || d.ctr.folded.Load() != 0 {
			t.Errorf("format %s moved the counters: %+v, folded %d", format, got, d.ctr.folded.Load())
		}
	}
	resp, err := http.Get(srv.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest = %d, want 405", resp.StatusCode)
	}
}

func TestServerMetrics(t *testing.T) {
	d, srv := startTestDaemon(t, Config{})
	logText := genNginxLog(20, 53)
	resp, err := http.Post(srv.URL+"/ingest", "text/plain",
		strings.NewReader(logText+"garbage line\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, 10*time.Second, "folds", func() bool { return d.ctr.folded.Load() == 20 })

	code, body := get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE harvestd_lines_total counter",
		"# HELP harvestd_lines_total",
		"harvestd_lines_total 21",
		"harvestd_parse_errors_total 1",
		"harvestd_folded_total 20",
		"harvestd_ingested_total 20",
		"harvestd_queue_capacity",
		"harvestd_ingest_rate_lines_per_second",
		"# TYPE harvestd_policy_ess gauge",
		`harvestd_policy_n{policy="always-0"} 20`,
		`harvestd_policy_ess{policy="always-0"}`,
		`harvestd_policy_max_weight{policy="leastloaded"} 2`,
		`harvestd_policy_clip_fraction{policy="always-0"} 0`,
		`harvestd_policy_mean{estimator="ips",policy="leastloaded"}`,
		"go_goroutines",
		"go_heap_alloc_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// stripVolatile drops the go_* runtime series, whose values legitimately
// change between scrapes; everything else must be byte-stable under a
// fixed clock.
func stripVolatile(body string) string {
	var keep []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "go_") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestServerMetricsDeterministic is the regression test for the old
// hand-rolled renderer's map-iteration bug: with a fixed clock, two
// consecutive scrapes of unchanged estimator state must be byte-identical,
// including the per-policy per-estimator series that used to come out in
// random order.
func TestServerMetricsDeterministic(t *testing.T) {
	d, srv := startTestDaemon(t, Config{Clock: &obs.FixedClock{T: time.Unix(1000, 0)}})
	resp, err := http.Post(srv.URL+"/ingest", "text/plain", strings.NewReader(genNginxLog(30, 54)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, 10*time.Second, "folds", func() bool { return d.ctr.folded.Load() == 30 })

	code, first := get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for i := 0; i < 5; i++ {
		_, again := get(t, srv.URL+"/metrics")
		if stripVolatile(again) != stripVolatile(first) {
			t.Fatalf("render %d differs:\n--- first ---\n%s\n--- again ---\n%s",
				i, stripVolatile(first), stripVolatile(again))
		}
	}
	// The estimator label values must appear in sorted order within the
	// family — the specific instability the old renderer had.
	idx := func(s string) int { return strings.Index(first, s) }
	ci, ips, sn := idx(`estimator="clipped_ips"`), idx(`estimator="ips"`), idx(`estimator="snips"`)
	if ci < 0 || ips < 0 || sn < 0 || !(ci < ips && ips < sn) {
		t.Errorf("estimator series out of sorted order: clipped_ips@%d ips@%d snips@%d", ci, ips, sn)
	}
}

// TestServerDiagnostics checks the /diagnostics endpoint against an
// offline recompute: an independent single-threaded fold over the same log
// lines must agree with the live sharded daemon on every health field.
func TestServerDiagnostics(t *testing.T) {
	d, srv := startTestDaemon(t, Config{})
	logText := genNginxLog(80, 55)
	resp, err := http.Post(srv.URL+"/ingest", "text/plain", strings.NewReader(logText))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, 10*time.Second, "folds", func() bool { return d.ctr.folded.Load() == 80 })

	code, body := get(t, srv.URL+"/diagnostics")
	if code != 200 {
		t.Fatalf("diagnostics = %d", code)
	}
	var rep DiagnosticsReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad diagnostics JSON: %v\n%s", err, body)
	}
	if rep.Clip != d.reg.Clip() || rep.PropensityFloor != d.reg.PropensityFloor() {
		t.Errorf("settings = clip %v floor %v", rep.Clip, rep.PropensityFloor)
	}
	if len(rep.Policies) != 3 {
		t.Fatalf("got %d policies", len(rep.Policies))
	}

	// Offline recompute: re-parse the raw log and fold single-threaded.
	offline := map[string]*ope.Accum{}
	for _, name := range d.reg.Names() {
		offline[name] = &ope.Accum{}
	}
	pols := map[string]core.Policy{
		"always-0":    policy.Constant{A: core.Action(0)},
		"always-1":    policy.Constant{A: core.Action(1)},
		"leastloaded": lbsim.LeastLoaded{},
	}
	for _, line := range strings.Split(strings.TrimSpace(logText), "\n") {
		e, err := harvester.ParseNginxLine(line)
		if err != nil {
			t.Fatal(err)
		}
		dp, ok, err := harvester.EntryToTypedDatapoint(e, 1)
		if err != nil || !ok {
			t.Fatalf("line rejected: %v", err)
		}
		for name, pol := range pols {
			pi := core.ActionProb(pol, &dp.Context, dp.Action)
			offline[name].Fold(pi, dp.Propensity, dp.Reward, d.reg.Clip(), d.reg.PropensityFloor())
		}
	}
	for _, got := range rep.Policies {
		want := offline[got.Policy].Diagnostics(got.Policy)
		if got.N != want.N || got.Matches != want.Matches ||
			got.ClippedN != want.ClippedN || got.FloorHits != want.FloorHits {
			t.Errorf("%s counts: got %+v want %+v", got.Policy, got, want)
		}
		for _, f := range []struct {
			name     string
			got, exp float64
		}{
			{"ess", got.ESS, want.ESS},
			{"ess_fraction", got.ESSFraction, want.ESSFraction},
			{"mean_weight", got.MeanWeight, want.MeanWeight},
			{"max_weight", got.MaxWeight, want.MaxWeight},
			{"clip_fraction", got.ClipFraction, want.ClipFraction},
			{"floor_fraction", got.FloorFraction, want.FloorFraction},
		} {
			if math.Abs(f.got-f.exp) > 1e-9 {
				t.Errorf("%s %s = %v, offline recompute %v", got.Policy, f.name, f.got, f.exp)
			}
		}
	}
	// Sanity on the uniform-logging log: mean weight ≈ match_rate / 0.5.
	for _, pd := range rep.Policies {
		if pd.N != 80 {
			t.Errorf("%s n = %d", pd.Policy, pd.N)
		}
		if math.Abs(pd.MeanWeight-2*pd.MatchRate) > 1e-9 {
			t.Errorf("%s mean weight %v vs match rate %v", pd.Policy, pd.MeanWeight, pd.MatchRate)
		}
	}
}

func TestServerCheckpointEndpoint(t *testing.T) {
	// Disabled checkpointing → an error.
	d, _ := startTestDaemon(t, Config{})
	if err := d.Checkpoint(); err == nil {
		t.Error("checkpoint without a path succeeded")
	}

	// Enabled → file appears. The timer and shutdown write it; no HTTP
	// route does.
	path := t.TempDir() + "/ck.json"
	d2, srv2 := startTestDaemon(t, Config{CheckpointPath: path})
	if err := d2.Checkpoint(); err != nil {
		t.Errorf("checkpoint: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("checkpoint file: %v", err)
	}
	resp, err := http.Post(srv2.URL+"/checkpoint", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /checkpoint = %d, want 404", resp.StatusCode)
	}
}
