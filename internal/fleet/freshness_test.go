package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/harvestd"
	"repro/internal/obs"
)

// freshSnapServer serves /snapshot plus a scripted /freshness report
// (nil: 404, simulating a shard predating the endpoint).
func freshSnapServer(t *testing.T, snap *harvestd.StateSnapshot, rep *harvestd.FreshnessReport) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/snapshot":
			if err := harvestd.EncodeSnapshot(w, snap); err != nil {
				t.Errorf("encode snapshot: %v", err)
			}
		case "/freshness":
			if rep == nil {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(rep)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestFleetFreshnessMerge(t *testing.T) {
	mkRep := func(id string, wm int64, age float64, behind int64) *harvestd.FreshnessReport {
		return &harvestd.FreshnessReport{
			Version:             harvestd.FreshnessVersion,
			ShardID:             id,
			WatermarkSeq:        wm,
			WatermarkAgeSeconds: age,
			Behind:              behind,
			QueueDepth:          int(behind),
		}
	}
	sa := freshSnapServer(t, testSnap("shard-a", 1, 10, 200), mkRep("shard-a", 100, 1.5, 2))
	sb := freshSnapServer(t, testSnap("shard-b", 1, 20, 300), mkRep("shard-b", 40, 0.5, 3))
	sc := freshSnapServer(t, testSnap("shard-c", 1, 30, 100), nil) // no /freshness
	clk := &obs.FixedClock{T: time.Unix(1700000000, 0)}
	a, err := New(Config{
		Shards: []Shard{
			{Name: "shard-a", URL: sa.URL},
			{Name: "shard-b", URL: sb.URL},
			{Name: "shard-c", URL: sc.URL},
		},
		Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	ff := a.Freshness()
	if ff.Version != harvestd.FreshnessVersion || ff.LiveShards != 3 || ff.TotalShards != 3 {
		t.Fatalf("version/live/total = %d/%d/%d", ff.Version, ff.LiveShards, ff.TotalShards)
	}
	// Min watermark across shards that reported one; max effective age;
	// total backlog. shard-c contributes nothing (it has no report).
	if ff.WatermarkSeq != 40 {
		t.Errorf("fleet watermark = %d, want 40", ff.WatermarkSeq)
	}
	if ff.WatermarkAgeSeconds != 1.5 {
		t.Errorf("fleet age = %v, want 1.5", ff.WatermarkAgeSeconds)
	}
	if ff.Behind != 5 {
		t.Errorf("fleet behind = %d, want 5", ff.Behind)
	}
	if len(ff.Shards) != 3 ||
		ff.Shards[0].Name != "shard-a" || ff.Shards[1].Name != "shard-b" || ff.Shards[2].Name != "shard-c" {
		t.Fatalf("shard rows out of order: %+v", ff.Shards)
	}
	if row := ff.Shards[2]; row.WatermarkSeq != -1 || row.WatermarkAgeSeconds != -1 || row.ReportAgeSeconds != -1 || !row.Live {
		t.Errorf("reportless shard row = %+v, want unknown watermarks but live", row)
	}

	// The report ages as the clock moves: effective shard age = shard-
	// reported age + time since the aggregator pulled the report.
	clk.Advance(2 * time.Second)
	ff = a.Freshness()
	if got := ff.Shards[0].WatermarkAgeSeconds; got != 3.5 {
		t.Errorf("aged shard-a watermark age = %v, want 3.5", got)
	}
	if got := ff.Shards[0].ReportAgeSeconds; got != 2 {
		t.Errorf("report age = %v, want 2", got)
	}
	if ff.WatermarkAgeSeconds != 3.5 {
		t.Errorf("aged fleet age = %v, want 3.5", ff.WatermarkAgeSeconds)
	}

	// HTTP surface: /freshness round-trips and is byte-stable under a
	// fixed clock.
	srv := httptest.NewServer(a.handler())
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/freshness")
	if err != nil {
		t.Fatal(err)
	}
	var got FleetFreshness
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if got.WatermarkSeq != 40 || got.LiveShards != 3 {
		t.Errorf("HTTP freshness = %+v", got)
	}
}

// TestMetricsScrapeMatchesFreshnessAndShards: one /metrics scrape reads
// the same View as /freshness and /shards, so under a fixed clock the
// fleet watermark gauges and the per-shard liveness and staleness gauges
// equal those payloads — across a live, a stale and a never-pulled shard.
func TestMetricsScrapeMatchesFreshnessAndShards(t *testing.T) {
	rep := func(wm int64, behind int64) *harvestd.FreshnessReport {
		return &harvestd.FreshnessReport{Version: harvestd.FreshnessVersion, WatermarkSeq: wm, WatermarkAgeSeconds: 0.5, Behind: behind}
	}
	sa := freshSnapServer(t, testSnap("shard-a", 3, 10, 200), rep(90, 4))
	sb := freshSnapServer(t, testSnap("shard-b", 5, 20, 300), rep(40, 7))
	sc := newSnapServer(t, testSnap("shard-c", 1, 30, 100))
	sc.fail(http.StatusInternalServerError)
	clk := &obs.FixedClock{T: time.Unix(1700000000, 0)}
	a, err := New(Config{
		Shards: []Shard{
			{Name: "shard-a", URL: sa.URL},
			{Name: "shard-b", URL: sb.URL},
			{Name: "shard-c", URL: sc.srv.URL},
		},
		StaleAfter: 10 * time.Second,
		Clock:      clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = a.PullAll(context.Background()) // shard-c fails
	clk.Advance(20 * time.Second)       // shard-b goes stale
	if err := a.pullShard(context.Background(), a.shards[0]); err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Second)

	srv := httptest.NewServer(a.handler())
	t.Cleanup(srv.Close)
	read := func(path string, v any) []byte {
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
		if v != nil {
			if err := json.Unmarshal(body, v); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		return body
	}
	series := map[string]float64{}
	for _, line := range strings.Split(string(read("/metrics", nil)), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			series[line[:i]] = v
		}
	}
	var ff FleetFreshness
	read("/freshness", &ff)
	var shards []ShardStatus
	read("/shards", &shards)

	gauge := func(key string) float64 {
		t.Helper()
		v, ok := series[key]
		if !ok {
			t.Fatalf("scrape has no %s", key)
		}
		return v
	}
	if ff.LiveShards != 1 || ff.WatermarkSeq != 90 || ff.Behind != 4 {
		t.Fatalf("freshness = %+v, want shard-a alone live", ff)
	}
	if got := gauge("harvestagg_watermark_seq"); got != float64(ff.WatermarkSeq) {
		t.Errorf("harvestagg_watermark_seq = %v, /freshness %d", got, ff.WatermarkSeq)
	}
	if got := gauge("harvestagg_freshness_behind"); got != float64(ff.Behind) {
		t.Errorf("harvestagg_freshness_behind = %v, /freshness %d", got, ff.Behind)
	}
	if len(shards) != 3 {
		t.Fatalf("/shards has %d rows, want 3", len(shards))
	}
	for _, st := range shards {
		up := 0.0
		if st.Live {
			up = 1
		}
		if got := gauge(`harvestagg_shard_up{shard="` + st.Name + `"}`); got != up {
			t.Errorf("%s: harvestagg_shard_up = %v, /shards live %v", st.Name, got, st.Live)
		}
		if got := gauge(`harvestagg_shard_staleness_seconds{shard="` + st.Name + `"}`); got != st.AgeSeconds {
			t.Errorf("%s: harvestagg_shard_staleness_seconds = %v, /shards age %v", st.Name, got, st.AgeSeconds)
		}
	}
	if !shards[0].Live || !shards[1].Stale || shards[2].AgeSeconds != -1 {
		t.Errorf("shard rows = %+v, want live, stale, never pulled", shards)
	}
}
