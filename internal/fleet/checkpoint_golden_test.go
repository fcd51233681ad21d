package fleet

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harvestd"
	"repro/internal/obs"
	"repro/internal/ope"
)

// TestCheckpointGoldenBytes pins the aggregator's checkpoint file for two
// shards, one pulled and one never pulled, under a fixed clock. The
// accumulators fold binary fractions, so every field prints exactly.
func TestCheckpointGoldenBytes(t *testing.T) {
	var acc ope.Accum
	acc.Fold(0.5, 0.25, 1.5, 3.0, 1e-3)
	acc.Fold(1.0, 0.25, -0.5, 3.0, 1e-3)
	clk := &obs.FixedClock{T: time.Unix(1700000000, 0)}
	path := filepath.Join(t.TempDir(), "agg.ckpt")
	a, err := New(Config{
		Shards:         []Shard{{Name: "b", URL: "http://b.invalid"}, {Name: "a", URL: "http://a.invalid"}},
		CheckpointPath: path,
		Clock:          clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := a.shards[0] // "a": shards sort by name
	st.snap = &harvestd.StateSnapshot{
		Version:  harvestd.SnapshotVersion,
		ShardID:  "a",
		Seq:      4,
		Clip:     3,
		Floor:    0.001,
		Counters: harvestd.SnapshotCounters{Lines: 3, Rejected: 1, Ingested: 2, Folded: 2},
		Policies: map[string]ope.Accum{"p": acc},
	}
	st.lastSuccess = time.Unix(1699999990, 500)
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "checkpoint.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint bytes drifted from %s:\n got  %s\n want %s", golden, got, want)
	}
}

// TestCheckpointColdStart: a checkpoint path in an empty directory is a
// first run — Start succeeds and logs no resume.
func TestCheckpointColdStart(t *testing.T) {
	ss := newSnapServer(t, testSnap("shard-a", 1, 5, 10))
	var mu sync.Mutex
	var logged []string
	a, err := New(Config{
		Shards:         []Shard{{Name: "shard-a", URL: ss.srv.URL}},
		CheckpointPath: filepath.Join(t.TempDir(), "agg.ckpt"),
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatalf("cold start: %v", err)
	}
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "resumed") {
			t.Errorf("cold start logged a resume: %q", line)
		}
	}
}
