package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harvestd"
	"repro/internal/obs"
	"repro/internal/ope"
	"repro/internal/stats"
)

// testAccum folds n pseudo-random datapoints into one accumulator.
func testAccum(seed int64, n int) ope.Accum {
	r := stats.NewRand(seed)
	var a ope.Accum
	for i := 0; i < n; i++ {
		pi := r.Float64()
		p := 0.1 + 0.9*r.Float64()
		a.Fold(pi, p, -1+2*r.Float64(), 3.0, harvestd.DefaultPropensityFloor)
	}
	return a
}

// testSnap builds a shard snapshot over the standard two-policy set.
func testSnap(shardID string, seq, seed int64, n int) *harvestd.StateSnapshot {
	return &harvestd.StateSnapshot{
		Version: harvestd.SnapshotVersion,
		ShardID: shardID,
		Seq:     seq,
		Clip:    3.0,
		Floor:   harvestd.DefaultPropensityFloor,
		Counters: harvestd.SnapshotCounters{
			Lines: int64(n), Ingested: int64(n), Folded: int64(n),
		},
		Policies: map[string]ope.Accum{
			"uniform":     testAccum(seed, n),
			"leastloaded": testAccum(seed+100, n),
		},
	}
}

// snapServer serves /snapshot from a swappable snapshot; set failWith to a
// non-zero HTTP status to simulate a broken shard.
type snapServer struct {
	mu       sync.Mutex
	snap     *harvestd.StateSnapshot
	failWith int
	srv      *httptest.Server
}

func newSnapServer(t *testing.T, snap *harvestd.StateSnapshot) *snapServer {
	t.Helper()
	ss := &snapServer{snap: snap}
	ss.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/snapshot" {
			http.NotFound(w, r)
			return
		}
		ss.mu.Lock()
		snap, fail := ss.snap, ss.failWith
		ss.mu.Unlock()
		if fail != 0 {
			http.Error(w, "shard unhappy", fail)
			return
		}
		if err := harvestd.EncodeSnapshot(w, snap); err != nil {
			t.Errorf("snapServer encode: %v", err)
		}
	}))
	t.Cleanup(ss.srv.Close)
	return ss
}

func (ss *snapServer) set(snap *harvestd.StateSnapshot) {
	ss.mu.Lock()
	ss.snap = snap
	ss.mu.Unlock()
}

func (ss *snapServer) fail(status int) {
	ss.mu.Lock()
	ss.failWith = status
	ss.mu.Unlock()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil || !strings.Contains(err.Error(), "at least one shard") {
		t.Errorf("New with no shards: error = %v", err)
	}
	if _, err := New(Config{Shards: []Shard{{Name: "a"}}}); err == nil || !strings.Contains(err.Error(), `shard "a" has no URL`) {
		t.Errorf("New with URL-less shard: error = %v", err)
	}
	if _, err := New(Config{Shards: []Shard{
		{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"},
	}}); err == nil || !strings.Contains(err.Error(), `duplicate shard "a"`) {
		t.Errorf("New with duplicate shard names: error = %v", err)
	}
}

// TestRouterRejectsBadShardSets: New refuses a shard set that is empty,
// holds an empty name, or names a shard twice, and takes any set of
// distinct names whatever their order.
func TestRouterRejectsBadShardSets(t *testing.T) {
	shards := func(names ...string) []Shard {
		out := make([]Shard, len(names))
		for i, n := range names {
			out[i] = Shard{Name: n, URL: "http://x" + n}
		}
		return out
	}
	for _, c := range []struct {
		shards  []Shard
		wantErr string
	}{
		{nil, "at least one shard"},
		{[]Shard{}, "at least one shard"},
		{shards(""), "empty shard name"},
		{shards("b", ""), "empty shard name"},
		{shards("a", "a"), `duplicate shard "a"`},
		{shards("a", "b", "a"), `duplicate shard "a"`},
	} {
		if _, err := New(Config{Shards: c.shards}); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("New(%v) error = %v, want %q", c.shards, err, c.wantErr)
		}
	}
	if _, err := New(Config{Shards: shards("z", "m", "a")}); err != nil {
		t.Errorf("New over three distinct shards: %v", err)
	}
}

func TestAggregatorPullAndMergedView(t *testing.T) {
	s1 := newSnapServer(t, testSnap("shard-a", 1, 10, 200))
	s2 := newSnapServer(t, testSnap("shard-b", 1, 20, 300))
	clk := &obs.FixedClock{T: time.Unix(1700000000, 0)}
	a, err := New(Config{
		Shards: []Shard{
			{Name: "shard-a", URL: s1.srv.URL},
			{Name: "shard-b", URL: s2.srv.URL},
		},
		Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	v := a.View()
	if v.LiveShards != 2 || v.TotalShards != 2 {
		t.Fatalf("live=%d total=%d", v.LiveShards, v.TotalShards)
	}
	if v.Counters.Folded != 500 {
		t.Fatalf("merged folded = %d, want 500", v.Counters.Folded)
	}
	// The merged accumulator must equal merging the snapshots directly in
	// sorted-shard order, bit for bit.
	for _, pol := range []string{"uniform", "leastloaded"} {
		var want ope.Accum
		a1 := testSnap("shard-a", 1, 10, 200).Policies[pol]
		a2 := testSnap("shard-b", 1, 20, 300).Policies[pol]
		want.Merge(&a1)
		want.Merge(&a2)
		got := v.Policies[pol]
		if got != want {
			t.Fatalf("policy %s merged view diverged:\n got  %+v\n want %+v", pol, got, want)
		}
	}
	// Estimates carry the fleet-wide N.
	for _, pe := range v.Estimates(0.05) {
		if pe.N != 500 {
			t.Errorf("policy %s n = %d, want 500", pe.Policy, pe.N)
		}
	}
}

// TestAggregatorRefusesShardUnderAnotherClip: a shard whose snapshot was
// folded under another clip than an installed shard's is refused at pull,
// not merged. It is counted, not live, and /shards says why, and the view
// holds the first shard's rows alone.
func TestAggregatorRefusesShardUnderAnotherClip(t *testing.T) {
	s1 := newSnapServer(t, testSnap("shard-a", 1, 10, 200))
	wide := testSnap("shard-b", 1, 20, 300)
	wide.Clip = 50
	s2 := newSnapServer(t, wide)
	a, err := New(Config{
		Shards: []Shard{
			{Name: "shard-a", URL: s1.srv.URL},
			{Name: "shard-b", URL: s2.srv.URL},
		},
		Clock: &obs.FixedClock{T: time.Unix(1700000000, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PullAll(context.Background()); err == nil || !strings.Contains(err.Error(), "clip 50") {
		t.Fatalf("pull of a shard under clip 50 next to one under clip 3: error = %v", err)
	}
	v := a.View()
	if v.LiveShards != 1 || v.Clip != 3 || v.Counters.Folded != 200 {
		t.Fatalf("view: live=%d clip=%g n=%d, want live=1 clip=3 n=200", v.LiveShards, v.Clip, v.Counters.Folded)
	}
	for _, pol := range []string{"uniform", "leastloaded"} {
		if got, want := v.Policies[pol], testSnap("shard-a", 1, 10, 200).Policies[pol]; got != want {
			t.Errorf("policy %s: the view is not shard-a's rows alone:\n got  %+v\n want %+v", pol, got, want)
		}
	}
	if b := v.Shards[1]; b.Name != "shard-b" || b.Live || !strings.Contains(b.LastError, "clip 50") {
		t.Errorf("shard-b's /shards row: %+v, want not live with the clip named", b)
	}
	var metrics bytes.Buffer
	if err := a.obsReg.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{`harvestagg_shard_refused_total{shard="shard-a"} 0`, `harvestagg_shard_refused_total{shard="shard-b"} 1`} {
		if !strings.Contains(metrics.String(), line+"\n") {
			t.Errorf("metrics lack %q", line)
		}
	}
}

func TestAggregatorStalenessDropAndRecover(t *testing.T) {
	s1 := newSnapServer(t, testSnap("shard-a", 1, 10, 200))
	s2 := newSnapServer(t, testSnap("shard-b", 1, 20, 300))
	clk := &obs.FixedClock{T: time.Unix(1700000000, 0)}
	a, err := New(Config{
		Shards: []Shard{
			{Name: "shard-a", URL: s1.srv.URL},
			{Name: "shard-b", URL: s2.srv.URL},
		},
		StaleAfter: 10 * time.Second,
		Clock:      clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Inside the tolerance window the last snapshot still merges.
	clk.Advance(9 * time.Second)
	if v := a.View(); v.LiveShards != 2 {
		t.Fatalf("inside window: live=%d, want 2", v.LiveShards)
	}

	// Refresh only shard-a; shard-b ages past the window and drops out:
	// coverage shrinks and the interval widens, nothing fails.
	clk.Advance(2 * time.Second)
	if err := a.pullShard(context.Background(), a.shards[0]); err != nil {
		t.Fatal(err)
	}
	v := a.View()
	if v.LiveShards != 1 {
		t.Fatalf("after staleness: live=%d, want 1", v.LiveShards)
	}
	var status ShardStatus
	for _, st := range v.Shards {
		if st.Name == "shard-b" {
			status = st
		}
	}
	if status.Live || !status.Stale {
		t.Fatalf("shard-b status = %+v, want stale", status)
	}
	est := v.Estimates(0.05)
	if est[0].N != 200 {
		t.Fatalf("degraded n = %d, want 200 (shard-a only)", est[0].N)
	}

	// A full view (both live) has more data and a tighter interval than the
	// degraded one.
	if err := a.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	fullView := a.View()
	full := fullView.Estimates(0.05)
	if full[0].N != 500 {
		t.Fatalf("recovered n = %d, want 500", full[0].N)
	}
	degradedWidth := est[0].SNIPS.Hi - est[0].SNIPS.Lo
	fullWidth := full[0].SNIPS.Hi - full[0].SNIPS.Lo
	if fullWidth >= degradedWidth {
		t.Errorf("losing a shard should widen the interval: degraded %v, full %v",
			degradedWidth, fullWidth)
	}
}

func TestAggregatorNeverDropWhenStaleAfterNegative(t *testing.T) {
	s1 := newSnapServer(t, testSnap("shard-a", 1, 10, 50))
	clk := &obs.FixedClock{T: time.Unix(1700000000, 0)}
	a, err := New(Config{
		Shards:     []Shard{{Name: "shard-a", URL: s1.srv.URL}},
		StaleAfter: -1,
		Clock:      clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	clk.Advance(365 * 24 * time.Hour)
	if v := a.View(); v.LiveShards != 1 {
		t.Fatalf("StaleAfter<0 must never drop: live=%d", v.LiveShards)
	}
}

func TestAggregatorPullFailureAndRestartDetection(t *testing.T) {
	ss := newSnapServer(t, testSnap("shard-a", 5, 10, 50))
	clk := &obs.FixedClock{T: time.Unix(1700000000, 0)}
	a, err := New(Config{
		Shards: []Shard{{Name: "shard-a", URL: ss.srv.URL}},
		Clock:  clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Failures count consecutively and surface in the status row, but the
	// last good snapshot keeps serving inside the tolerance window.
	ss.fail(http.StatusInternalServerError)
	for i := 0; i < 3; i++ {
		if err := a.PullAll(context.Background()); err == nil {
			t.Fatal("pull from a 500ing shard should fail")
		}
	}
	v := a.View()
	if v.Shards[0].ConsecutiveFailures != 3 || v.Shards[0].LastError == "" {
		t.Fatalf("status after failures: %+v", v.Shards[0])
	}
	if v.LiveShards != 1 {
		t.Fatalf("within tolerance the last snapshot still serves: live=%d", v.LiveShards)
	}

	// Recovery with a lower Seq means the shard restarted.
	ss.set(testSnap("shard-a", 1, 10, 10))
	ss.fail(0)
	if err := a.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	v = a.View()
	if v.Shards[0].ConsecutiveFailures != 0 || v.Shards[0].Restarts != 1 {
		t.Fatalf("status after restart: %+v", v.Shards[0])
	}
}

func TestAggregatorCheckpointResume(t *testing.T) {
	s1 := newSnapServer(t, testSnap("shard-a", 3, 10, 200))
	clk := &obs.FixedClock{T: time.Unix(1700000000, 0)}
	path := filepath.Join(t.TempDir(), "agg.ckpt")
	cfg := Config{
		Shards:         []Shard{{Name: "shard-a", URL: s1.srv.URL}},
		StaleAfter:     time.Minute,
		CheckpointPath: path,
		Clock:          clk,
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := a.View()
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// SavedAt follows the injected clock: the same state checkpointed again
	// is the same bytes.
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(first, again) {
		t.Fatalf("two checkpoints of one state under a fixed clock differ (err %v):\n%s\n%s", err, first, again)
	}

	// A new aggregator resumes the snapshot and its pull time.
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := b.loadCheckpoint(); err != nil || n != 1 {
		t.Fatalf("loadCheckpoint = %d, %v", n, err)
	}
	got := b.View()
	if got.LiveShards != 1 || got.Policies["uniform"] != want.Policies["uniform"] {
		t.Fatalf("resumed view diverged: %+v vs %+v", got.Policies, want.Policies)
	}

	// Staleness survives the restart: advance past the window and the
	// resumed snapshot is stale, not reborn fresh.
	clk.Advance(2 * time.Minute)
	if v := b.View(); v.LiveShards != 0 || !v.Shards[0].Stale {
		t.Fatalf("resumed snapshot must age from its original pull: %+v", v.Shards[0])
	}

	// A checkpoint naming shards no longer in the fleet is ignored quietly.
	c, err := New(Config{
		Shards:         []Shard{{Name: "other", URL: s1.srv.URL}},
		CheckpointPath: path,
		Clock:          clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.loadCheckpoint(); err != nil || n != 0 {
		t.Fatalf("unknown-shard checkpoint: restored %d, err %v", n, err)
	}
}

// TestAggregatorServedEstimatesPermutationInvariant is the satellite's
// order-independence proof at the API level: however the shard list is
// permuted and whatever order the pulls land in, the served /estimates
// bytes are identical.
func TestAggregatorServedEstimatesPermutationInvariant(t *testing.T) {
	servers := []*snapServer{
		newSnapServer(t, testSnap("shard-a", 1, 10, 100)),
		newSnapServer(t, testSnap("shard-b", 1, 20, 150)),
		newSnapServer(t, testSnap("shard-c", 1, 30, 250)),
	}
	shards := []Shard{
		{Name: "shard-a", URL: servers[0].srv.URL},
		{Name: "shard-b", URL: servers[1].srv.URL},
		{Name: "shard-c", URL: servers[2].srv.URL},
	}
	perms := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {0, 2, 1}, {2, 0, 1}, {1, 0, 2}}
	var first string
	for _, perm := range perms {
		ordered := make([]Shard, len(perm))
		for i, p := range perm {
			ordered[i] = shards[p]
		}
		a, err := New(Config{Shards: ordered, Clock: &obs.FixedClock{T: time.Unix(1700000000, 0)}})
		if err != nil {
			t.Fatal(err)
		}
		// Pull in the permuted order, one shard at a time.
		for _, st := range a.shards {
			if err := a.pullShard(context.Background(), st); err != nil {
				t.Fatal(err)
			}
		}
		srv := httptest.NewServer(a.handler())
		resp, err := http.Get(srv.URL + "/estimates")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if first == "" {
			first = string(body)
			continue
		}
		if string(body) != first {
			t.Fatalf("permutation %v served different bytes:\n%s\nvs\n%s", perm, body, first)
		}
	}
	if !strings.Contains(first, `"policy": "leastloaded"`) {
		t.Fatalf("served estimates look wrong: %s", first)
	}
}

func TestAggregatorHTTPEndpoints(t *testing.T) {
	ss := newSnapServer(t, testSnap("shard-a", 1, 10, 100))
	a, err := New(Config{
		Shards:         []Shard{{Name: "shard-a", URL: ss.srv.URL}},
		CheckpointPath: filepath.Join(t.TempDir(), "agg.ckpt"),
		Clock:          &obs.FixedClock{T: time.Unix(1700000000, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
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
	// One synchronous pull warms the state up; everything else reads it.
	if err := a.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/healthz"); code != 200 || !strings.HasPrefix(body, "ok") || !strings.Contains(body, "shards=1/1") {
		t.Errorf("healthz = %d %q", code, body)
	}

	code, body := get("/estimates?policy=uniform")
	if code != 200 {
		t.Fatalf("estimates = %d", code)
	}
	var pe ope.PolicyEstimate
	if err := json.Unmarshal([]byte(body), &pe); err != nil {
		t.Fatalf("bad estimates JSON: %v\n%s", err, body)
	}
	if pe.Policy != "uniform" || pe.N != 100 {
		t.Errorf("estimate = %+v", pe)
	}
	if code, _ := get("/estimates?policy=nope"); code != 404 {
		t.Errorf("unknown policy = %d, want 404", code)
	}
	if code, _ := get("/estimates?delta=2"); code != 400 {
		t.Errorf("bad delta = %d, want 400", code)
	}

	code, body = get("/diagnostics")
	if code != 200 {
		t.Fatalf("diagnostics = %d", code)
	}
	var diag fleetDiagnostics
	if err := json.Unmarshal([]byte(body), &diag); err != nil {
		t.Fatalf("bad diagnostics JSON: %v\n%s", err, body)
	}
	if diag.LiveShards != 1 || diag.TotalShards != 1 || len(diag.Policies) != 2 {
		t.Errorf("diagnostics = %+v", diag)
	}

	code, body = get("/shards")
	if code != 200 || !strings.Contains(body, `"shard-a"`) {
		t.Errorf("shards = %d %q", code, body)
	}

	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, metric := range []string{
		"harvestagg_shard_up{shard=\"shard-a\"} 1",
		"harvestagg_shards_live 1",
		"harvestagg_policy_n{policy=\"uniform\"} 100",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}

	if err := a.Checkpoint(); err != nil {
		t.Errorf("checkpoint: %v", err)
	}
}

// TestAggregatorStartShutdown exercises the managed lifecycle: Start spins
// the pull loops and API, estimates become available, Shutdown writes the
// final checkpoint.
func TestAggregatorStartShutdown(t *testing.T) {
	ss := newSnapServer(t, testSnap("shard-a", 1, 10, 100))
	path := filepath.Join(t.TempDir(), "agg.ckpt")
	a, err := New(Config{
		Shards:         []Shard{{Name: "shard-a", URL: ss.srv.URL}},
		PullInterval:   10 * time.Millisecond,
		Addr:           "127.0.0.1:0",
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err == nil {
		t.Error("double Start should fail")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v := a.View(); v.LiveShards == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never became live")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(a.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a.checkpoints.Load() == 0 {
		t.Error("shutdown should write a final checkpoint")
	}
	// Idempotent.
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
