package harvestd

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

	"repro/internal/core"
	"repro/internal/lbsim"
	"repro/internal/obs"
	"repro/internal/policy"
)

// checkGolden compares got with the committed file; UPDATE_GOLDEN=1
// rewrites the file instead.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
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

// TestCheckpointGoldenBytes pins the checkpoint file of a small state under
// a fixed clock: rewards and propensities are binary fractions, so every
// accumulator field prints exactly.
func TestCheckpointGoldenBytes(t *testing.T) {
	reg, err := NewRegistry(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 2; a++ {
		if err := reg.Register(fmt.Sprintf("always-%d", a), policy.Constant{A: core.Action(a)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := make(core.Dataset, 6)
	for i := range ds {
		ds[i] = core.Datapoint{
			Context:    lbsim.BuildContext([]int{i % 3, 2 - i%3}, 0, 1),
			Action:     core.Action(i % 2),
			Reward:     float64(i+1) / 8,
			Propensity: 0.5,
		}
	}
	reg.FoldBatch(0, ds)
	path := filepath.Join(t.TempDir(), "state.json")
	clk := &obs.FixedClock{T: time.Unix(1700000000, 0)}
	d, err := New(Config{Workers: 1, Clip: 10, CheckpointPath: path, Clock: clk}, reg)
	if err != nil {
		t.Fatal(err)
	}
	d.ctr.lines.Store(8)
	d.ctr.parseErrors.Store(1)
	d.ctr.rejected.Store(1)
	d.ctr.ingested.Store(6)
	d.ctr.folded.Store(6)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "checkpoint.golden"), got)
}

// TestCheckpointColdStart: a checkpoint path in an empty directory is a
// first run — Start succeeds and logs no resume.
func TestCheckpointColdStart(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	d, err := New(Config{
		Workers:        1,
		CheckpointPath: filepath.Join(t.TempDir(), "state.json"),
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	}, newTestRegistry(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatalf("cold start: %v", err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
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
