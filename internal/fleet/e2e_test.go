package fleet

// Kill-a-shard end-to-end test: three in-process harvestd shards ingest a
// router-partitioned workload, an aggregator federates them, and the merged
// fleet estimates are byte-identical to one monolithic daemon over the
// unsplit workload. Then one shard dies: the fleet degrades gracefully
// (coverage shrinks, intervals widen, nothing panics), and a restart from
// the shard's checkpoint restores the exact merged estimates.
//
// The workload is dyadic-exact on purpose — propensity 1/2 and rewards on a
// 1/1024 grid keep every importance weight and term a binary fraction, so
// float summation is associative over this data and "fleet == monolith"
// can be asserted byte-for-byte rather than within a tolerance.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harvestd"
	"repro/internal/lbsim"
	"repro/internal/ope"
	"repro/internal/policy"
	"repro/internal/stats"
)

// dyadicDataset fabricates n exploration datapoints whose importance terms
// are exact binary fractions (see the file comment).
func dyadicDataset(n int, seed int64) core.Dataset {
	r := stats.NewRand(seed)
	ds := make(core.Dataset, n)
	for i := range ds {
		conns := []int{r.Intn(6), r.Intn(6)}
		ds[i] = core.Datapoint{
			Context:    lbsim.BuildContext(conns, 0, 1),
			Action:     core.Action(r.Intn(2)),
			Reward:     float64(r.Intn(1024)) / 1024,
			Propensity: 0.5,
		}
	}
	return ds
}

// writeJSONLFile persists one source's datapoints.
func writeJSONLFile(t *testing.T, path string, ds core.Dataset) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// e2eRegistry builds the candidate set every daemon in the test evaluates.
func e2eRegistry(t *testing.T) *harvestd.Registry {
	t.Helper()
	reg, err := harvestd.NewRegistry(2, 10)
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

// startHarvestd boots one daemon over the given JSONL sources and waits for
// it to fold them all.
func startHarvestd(t *testing.T, shardID, ckpt string, files []string, wantN int64) *harvestd.Daemon {
	t.Helper()
	reg := e2eRegistry(t)
	d, err := harvestd.New(harvestd.Config{
		Workers: 2, Clip: 10, Delta: 0.05, Addr: "127.0.0.1:0",
		ShardID: shardID, CheckpointPath: ckpt, CheckpointInterval: time.Hour,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		d.AddSource(&harvestd.JSONLSource{Path: f})
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 30*time.Second, fmt.Sprintf("%s to fold %d datapoints", shardID, wantN),
		func() bool { return reg.TotalN() == wantN })
	return d
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// stableAddr is a fixed HTTP frontage for a shard whose backend daemon can
// die and come back on a different port — the aggregator's configured shard
// URL stays valid across the restart, the way a service address outlives
// one process.
type stableAddr struct {
	mu     sync.Mutex
	target string // live daemon base URL; empty = shard down
	srv    *httptest.Server
}

func newStableAddr(t *testing.T, target string) *stableAddr {
	t.Helper()
	sa := &stableAddr{target: target}
	sa.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sa.mu.Lock()
		target := sa.target
		sa.mu.Unlock()
		if target == "" {
			http.Error(w, "shard down", http.StatusBadGateway)
			return
		}
		resp, err := http.Get(target + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(sa.srv.Close)
	return sa
}

func (sa *stableAddr) retarget(url string) {
	sa.mu.Lock()
	sa.target = url
	sa.mu.Unlock()
}

// getBody fetches one URL and returns status and body.
func getBody(t *testing.T, url string) (int, string) {
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

func TestE2EFleetKillShardDegradeAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon fleet in -short mode")
	}
	dir := t.TempDir()
	shardNames := []string{"shard-0", "shard-1", "shard-2"}

	// Twelve sources, dealt round-robin across the three shards: the merged
	// state equals the monolithic one whatever the assignment.
	const perSource = 50
	var sources []string
	fileOf := map[string]string{}
	parts := map[string][]string{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("source-%02d.jsonl", i)
		path := filepath.Join(dir, name)
		writeJSONLFile(t, path, dyadicDataset(perSource, int64(100+i)))
		sources = append(sources, name)
		fileOf[name] = path
		s := shardNames[i%len(shardNames)]
		parts[s] = append(parts[s], name)
	}
	totalN := int64(len(sources) * perSource)

	// The monolithic reference ingests every source unsplit.
	var allFiles []string
	for _, name := range sources {
		allFiles = append(allFiles, fileOf[name])
	}
	mono := startHarvestd(t, "mono", "", allFiles, totalN)
	defer mono.Shutdown(context.Background())

	// The fleet: one daemon per shard over its assigned sources.
	daemons := map[string]*harvestd.Daemon{}
	shardN := map[string]int64{}
	for _, s := range shardNames {
		var files []string
		for _, name := range parts[s] {
			files = append(files, fileOf[name])
		}
		shardN[s] = int64(len(parts[s]) * perSource)
		daemons[s] = startHarvestd(t, s, filepath.Join(dir, s+".ckpt"), files, shardN[s])
	}
	defer func() {
		for _, d := range daemons {
			_ = d.Shutdown(context.Background())
		}
	}()

	// shard-2 sits behind a stable address so it can restart on a new port.
	victim := "shard-2"
	front := newStableAddr(t, daemons[victim].URL())
	agg, err := New(Config{
		Shards: []Shard{
			{Name: "shard-0", URL: daemons["shard-0"].URL()},
			{Name: "shard-1", URL: daemons["shard-1"].URL()},
			{Name: victim, URL: front.srv.URL},
		},
		PullInterval:       20 * time.Millisecond,
		PullTimeout:        2 * time.Second,
		MaxBackoff:         100 * time.Millisecond,
		StaleAfter:         400 * time.Millisecond,
		Delta:              0.05,
		Addr:               "127.0.0.1:0",
		CheckpointPath:     filepath.Join(dir, "agg.ckpt"),
		CheckpointInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer agg.Shutdown(context.Background())

	// Wait for the full merged view, and for the victim's snapshot sequence
	// to advance past its first pull — the restart check below relies on the
	// revived shard's fresh sequence (which restarts at 1) regressing below
	// the last one observed.
	waitUntil(t, 30*time.Second, "all shards live in the merged view", func() bool {
		v := agg.View()
		if v.LiveShards != 3 || v.Counters.Folded != totalN {
			return false
		}
		for _, st := range v.Shards {
			if st.Name == victim && st.Seq >= 2 {
				return true
			}
		}
		return false
	})

	// Fleet == monolith, byte for byte.
	code, monoBody := getBody(t, mono.URL()+"/estimates")
	if code != 200 {
		t.Fatalf("monolithic estimates = %d", code)
	}
	code, fleetBody := getBody(t, agg.URL()+"/estimates")
	if code != 200 {
		t.Fatalf("fleet estimates = %d", code)
	}
	if fleetBody != monoBody {
		t.Fatalf("fleet estimates diverge from the monolithic daemon:\nfleet:\n%s\nmono:\n%s",
			fleetBody, monoBody)
	}

	// Kill the victim. Its final checkpoint is written on shutdown; the
	// stable address starts 502ing.
	if err := daemons[victim].Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	front.retarget("")

	// The fleet degrades instead of failing: once the victim ages out of
	// the staleness window, coverage shrinks and intervals widen, and the
	// API keeps serving.
	waitUntil(t, 30*time.Second, "victim to age out of the merged view", func() bool {
		return agg.View().LiveShards == 2
	})
	code, degradedBody := getBody(t, agg.URL()+"/estimates")
	if code != 200 {
		t.Fatalf("degraded estimates = %d", code)
	}
	var fullEsts, degradedEsts []ope.PolicyEstimate
	if err := json.Unmarshal([]byte(fleetBody), &fullEsts); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(degradedBody), &degradedEsts); err != nil {
		t.Fatal(err)
	}
	wantDegradedN := totalN - shardN[victim]
	for i, pe := range degradedEsts {
		if pe.N != wantDegradedN {
			t.Errorf("degraded %s n = %d, want %d", pe.Policy, pe.N, wantDegradedN)
		}
		fullWidth := fullEsts[i].SNIPS.Hi - fullEsts[i].SNIPS.Lo
		degradedWidth := pe.SNIPS.Hi - pe.SNIPS.Lo
		if degradedWidth <= fullWidth {
			t.Errorf("degraded %s interval %v should be wider than full-fleet %v",
				pe.Policy, degradedWidth, fullWidth)
		}
	}
	var status []ShardStatus
	if code, body := getBody(t, agg.URL()+"/shards"); code != 200 {
		t.Fatalf("shards = %d", code)
	} else if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	for _, st := range status {
		if st.Name == victim && (st.Live || !st.Stale) {
			t.Errorf("victim status = %+v, want stale", st)
		}
	}

	// Restart the victim from its checkpoint — no sources this time: the
	// checkpoint alone restores its estimator state. Point the stable
	// address at the new incarnation.
	reg := e2eRegistry(t)
	revived, err := harvestd.New(harvestd.Config{
		Workers: 2, Clip: 10, Delta: 0.05, Addr: "127.0.0.1:0",
		ShardID: victim, CheckpointPath: filepath.Join(dir, victim+".ckpt"),
		CheckpointInterval: time.Hour,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := revived.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer revived.Shutdown(context.Background())
	daemons[victim] = revived
	front.retarget(revived.URL())

	// Full recovery: the merged estimates return to the exact monolithic
	// bytes, and the aggregator noticed the restart (sequence regression).
	waitUntil(t, 30*time.Second, "fleet to recover the full merged view", func() bool {
		v := agg.View()
		return v.LiveShards == 3 && v.Counters.Folded == totalN
	})
	_, recoveredBody := getBody(t, agg.URL()+"/estimates")
	if recoveredBody != monoBody {
		t.Fatalf("recovered estimates diverge from the monolithic daemon:\nfleet:\n%s\nmono:\n%s",
			recoveredBody, monoBody)
	}
	restarts := int64(0)
	for _, st := range agg.View().Shards {
		if st.Name == victim {
			restarts = st.Restarts
		}
	}
	if restarts == 0 {
		t.Error("aggregator should detect the victim's restart via its sequence regression")
	}
}
