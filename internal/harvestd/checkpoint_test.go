package harvestd

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// runDaemonOverDataset starts a daemon with the given checkpoint path, feeds
// it a JSONL source, waits until TotalN reaches expectTotal (restored
// baseline plus the fresh datapoints), and shuts it down cleanly.
func runDaemonOverDataset(t *testing.T, path string, n int, seed int64, expectTotal int64) []PolicyEstimate {
	t.Helper()
	ds := testDataset(n, seed)
	var buf strings.Builder
	if err := ds.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(t, 2)
	d, err := New(Config{Workers: 2, Clip: 10, CheckpointPath: path}, reg)
	if err != nil {
		t.Fatal(err)
	}
	d.AddSource(&JSONLSource{R: strings.NewReader(buf.String())})
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "folds", func() bool {
		return reg.TotalN() == expectTotal
	})
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	return d.Estimates()
}

func TestCheckpointResumeRestoresIdenticalState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	est1 := runDaemonOverDataset(t, path, 300, 61, 300)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("shutdown left no checkpoint: %v", err)
	}

	// A fresh daemon restoring from the checkpoint must report byte-identical
	// estimator state — same n, same means, same intervals.
	reg2 := newTestRegistry(t, 2)
	d2, err := New(Config{Workers: 2, Clip: 10, CheckpointPath: path}, reg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	est2 := d2.Estimates()
	if !reflect.DeepEqual(est1, est2) {
		t.Errorf("restored estimates differ:\nbefore %+v\nafter  %+v", est1, est2)
	}
	if err := d2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// No stray temp files from the atomic write protocol.
	matches, err := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("leftover temp files: %v", matches)
	}
}

// TestCheckpointFollowsInjectedClock: SavedAt comes from Config.Clock, so
// two checkpoints of the same state under a fixed clock are the same bytes.
func TestCheckpointFollowsInjectedClock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	reg := newTestRegistry(t, 1)
	ds := testDataset(50, 64)
	reg.FoldBatch(0, ds)
	clk := &obs.FixedClock{T: time.Unix(1700000000, 0)}
	d, err := New(Config{Workers: 1, Clip: 10, CheckpointPath: path, Clock: clk}, reg)
	if err != nil {
		t.Fatal(err)
	}
	var blobs [2][]byte
	for i := range blobs {
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if blobs[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Errorf("two checkpoints of one state under a fixed clock differ:\n%s\n%s", blobs[0], blobs[1])
	}
	if !bytes.Contains(blobs[0], []byte(`"saved_at": "2023-11-14T22:13:20Z"`)) {
		t.Errorf("saved_at is not the injected clock's time:\n%.200s", blobs[0])
	}
}

func TestCheckpointResumeThenContinueIngesting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	runDaemonOverDataset(t, path, 200, 62, 200)
	// Second run over a different dataset resumes on top of the restored 200.
	est := runDaemonOverDataset(t, path, 150, 63, 350)
	for _, pe := range est {
		if pe.N != 350 {
			t.Errorf("%s n = %d after resume+ingest, want 350", pe.Policy, pe.N)
		}
	}
	// And a third cold read sees the combined state persisted again.
	reg := newTestRegistry(t, 2)
	d, err := New(Config{Workers: 2, Clip: 10, CheckpointPath: path}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	if got := reg.TotalN(); got != 350 {
		t.Errorf("persisted n = %d, want 350", got)
	}
}

func TestCheckpointLoadErrors(t *testing.T) {
	dir := t.TempDir()

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(t, 1)
	d, err := New(Config{Workers: 1, CheckpointPath: corrupt}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err == nil {
		d.Shutdown(context.Background())
		t.Fatal("corrupt checkpoint should fail startup")
	}

	versioned := filepath.Join(dir, "versioned.json")
	if err := os.WriteFile(versioned, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	reg2 := newTestRegistry(t, 1)
	d2, err := New(Config{Workers: 1, CheckpointPath: versioned}, reg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(context.Background()); err == nil || !strings.Contains(err.Error(), "version") {
		if err == nil {
			d2.Shutdown(context.Background())
		}
		t.Fatalf("version mismatch error = %v", err)
	}

	// Missing file is a cold start, not an error.
	reg3 := newTestRegistry(t, 1)
	d3, err := New(Config{Workers: 1, CheckpointPath: filepath.Join(dir, "absent.json")}, reg3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d3.Start(context.Background()); err != nil {
		t.Fatalf("cold start: %v", err)
	}
	d3.Shutdown(context.Background())
}

func TestCheckpointTimer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	reg := newTestRegistry(t, 1)
	d, err := New(Config{
		Workers:            1,
		CheckpointPath:     path,
		CheckpointInterval: 10 * time.Millisecond,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	waitFor(t, 5*time.Second, "timer checkpoint", func() bool {
		return d.ctr.checkpoints.Load() >= 2
	})
	if _, err := os.Stat(path); err != nil {
		t.Errorf("no checkpoint file: %v", err)
	}
}
