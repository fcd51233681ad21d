package rollout

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestCheckpointGoldenBytes pins the controller's checkpoint file after a
// short scripted run under a fixed clock: one promotion into canary, then
// one hold.
func TestCheckpointGoldenBytes(t *testing.T) {
	f := newFakeHarvest(t)
	clock := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	path := filepath.Join(t.TempDir(), "rollout.ckpt")
	c := simController(t, f, clock, nil, func(cfg *Config) { cfg.CheckpointPath = path })
	playFrames(t, f, c, clock, []simFrame{{0.75, 0.5}, {0.5, 0.5}})
	if err := c.Checkpoint(); err != nil {
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
	var mu sync.Mutex
	var logged []string
	simController(t, newFakeHarvest(t), &obs.FixedClock{T: time.Unix(1700000000, 0)}, nil, func(cfg *Config) {
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "rollout.ckpt")
		cfg.Logf = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		}
	})
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "resumed") {
			t.Errorf("cold start logged a resume: %q", line)
		}
	}
}
