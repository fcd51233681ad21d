package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/harvestd"
	"repro/internal/ope"
)

func TestParseShards(t *testing.T) {
	got, err := parseShards("a=http://h1:1/,b=http://h2:2")
	if err != nil {
		t.Fatal(err)
	}
	want := []fleet.Shard{
		{Name: "a", URL: "http://h1:1"}, // trailing slash trimmed
		{Name: "b", URL: "http://h2:2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseShards = %+v, want %+v", got, want)
	}
	for _, spec := range []string{"", ",", "nameonly", "=http://x", "a="} {
		if _, err := parseShards(spec); err == nil {
			t.Errorf("parseShards(%q): expected error", spec)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{},
		{"-shards", "bad spec"},
		{"-shards", "a=http://x", "positional"},
		{"-shards", "a=http://x", "-addr", "256.0.0.1:bad"},
	} {
		if err := run(ctx, args, io.Discard, nil); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// fakeShard serves a fixed snapshot the way a harvestd shard would.
func fakeShard(t *testing.T, shardID string, n int) *httptest.Server {
	t.Helper()
	var acc ope.Accum
	for i := 0; i < n; i++ {
		acc.Fold(0.5, 0.5, float64(i%7)/8, 10, harvestd.DefaultPropensityFloor)
	}
	snap := &harvestd.StateSnapshot{
		Version:  harvestd.SnapshotVersion,
		ShardID:  shardID,
		Seq:      1,
		Clip:     10,
		Floor:    harvestd.DefaultPropensityFloor,
		Counters: harvestd.SnapshotCounters{Lines: int64(n), Ingested: int64(n), Folded: int64(n)},
		Policies: map[string]ope.Accum{"uniform": acc},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/snapshot" {
			http.NotFound(w, r)
			return
		}
		if err := harvestd.EncodeSnapshot(w, snap); err != nil {
			t.Errorf("encode: %v", err)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestRunAggregatesFleet drives the binary's lifecycle: boot against two
// fake shards, serve their merged estimates, shut down on signal.
func TestRunAggregatesFleet(t *testing.T) {
	s1 := fakeShard(t, "shard-a", 40)
	s2 := fakeShard(t, "shard-b", 60)

	ready := make(chan string, 1)
	errc := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		errc <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-shards", "shard-a=" + s1.URL + ",shard-b=" + s2.URL,
			"-pull-interval", "20ms",
		}, io.Discard, ready)
	}()
	var base string
	select {
	case base = <-ready:
	case err := <-errc:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for startup")
	}

	deadline := time.Now().Add(30 * time.Second)
	var ests []ope.PolicyEstimate
	for {
		resp, err := http.Get(base + "/estimates")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&ests)
		resp.Body.Close()
		if err == nil && len(ests) == 1 && ests[0].N == 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("merged estimates never reached n=100: %+v", ests)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ests[0].Policy != "uniform" {
		t.Errorf("estimates = %+v", ests)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `harvestagg_shard_up{shard="shard-a"} 1`) {
		t.Errorf("metrics missing shard-a liveness:\n%s", body)
	}

	cancel() // SIGTERM
	if err := <-errc; err != nil {
		t.Fatalf("run exited: %v", err)
	}
}
