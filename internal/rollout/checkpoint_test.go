package rollout

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// feedScript drives one scripted frame + step against a controller.
type simFrame struct {
	candMean, baseMean float64
}

func playFrames(t *testing.T, f *fakeHarvest, c *Controller, clock *obs.FixedClock, frames []simFrame) {
	t.Helper()
	for _, fr := range frames {
		f.feed(300, fr.candMean, 0.05, 300, fr.baseMean, 0.05)
		clock.Advance(2 * time.Second)
		if _, err := c.Step(context.Background()); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
}

// TestCheckpointResumeMidCanary kills a controller mid-canary and restarts
// it from its checkpoint: the resumed /status and /gates must be
// byte-identical to the pre-kill render, and the resumed run must keep
// making the same decisions an uninterrupted controller makes on the same
// remaining frames.
func TestCheckpointResumeMidCanary(t *testing.T) {
	script := []simFrame{
		{0.8, 0.5}, // shadow -> canary 1%
		{0.5, 0.5}, // hold (flat canary data)
		{0.8, 0.5}, // hold (monitor not yet re-separated after the flat batch)
		{0.8, 0.5}, // canary 1% -> 5%
		{0.8, 0.5}, // canary 5% -> 25%
	}
	ckpt := filepath.Join(t.TempDir(), "rollout.ckpt")

	// Interrupted run: two frames, kill, restart, two more frames.
	fI := newFakeHarvest(t)
	clockI := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	cI := simController(t, fI, clockI, nil, func(cfg *Config) { cfg.CheckpointPath = ckpt })
	playFrames(t, fI, cI, clockI, script[:2])
	if got := cI.Stage(); got != StageCanary {
		t.Fatalf("pre-kill stage %s, want %s", got, StageCanary)
	}
	statusBefore := getBody(t, cI.URL()+"/status")
	gatesBefore := getBody(t, cI.URL()+"/gates")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cI.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	cR := simController(t, fI, clockI, nil, func(cfg *Config) { cfg.CheckpointPath = ckpt })
	if got := cR.Stage(); got != StageCanary {
		t.Fatalf("resumed stage %s, want %s", got, StageCanary)
	}
	if got := getBody(t, cR.URL()+"/status"); !bytes.Equal(got, statusBefore) {
		t.Fatalf("resumed /status differs:\n%s\nvs\n%s", got, statusBefore)
	}
	if got := getBody(t, cR.URL()+"/gates"); !bytes.Equal(got, gatesBefore) {
		t.Fatalf("resumed /gates differs:\n%s\nvs\n%s", got, gatesBefore)
	}
	playFrames(t, fI, cR, clockI, script[2:])
	gatesResumed := getBody(t, cR.URL()+"/gates")

	// Uninterrupted control run over the identical script.
	fU := newFakeHarvest(t)
	clockU := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	cU := simController(t, fU, clockU, nil, nil)
	playFrames(t, fU, cU, clockU, script)
	gatesUninterrupted := getBody(t, cU.URL()+"/gates")

	if !bytes.Equal(gatesResumed, gatesUninterrupted) {
		t.Fatalf("kill/resume diverged from uninterrupted run:\n%s\nvs\n%s",
			gatesResumed, gatesUninterrupted)
	}
	if got := cR.Stage(); got != StageCanary || cR.Share() != 0.25 {
		t.Fatalf("resumed run ended at %s/%g, want canary/0.25", got, cR.Share())
	}
}

// TestCheckpointCorruptRejected ensures a mangled checkpoint refuses to
// start the controller, with the path in the error — never a silent cold
// start that could re-promote a rolled-back candidate.
func TestCheckpointCorruptRejected(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "rollout.ckpt")
	if err := os.WriteFile(ckpt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := newFakeHarvest(t)
	c, err := New(Config{
		Candidate: "cand", Baseline: "base",
		Harvest:        &HTTPHarvest{BaseURL: f.srv.URL},
		CheckpointPath: ckpt,
		Clock:          &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = c.Start(context.Background())
	if err == nil {
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = c.Shutdown(sctx)
		t.Fatal("Start accepted a corrupt checkpoint")
	}
	if !strings.Contains(err.Error(), "corrupt checkpoint") || !strings.Contains(err.Error(), ckpt) {
		t.Fatalf("error %q lacks corruption context and path", err)
	}
}

// TestCheckpointVersionAndIdentityRejected covers the two other refusal
// paths: a future schema version and a checkpoint for different policies.
func TestCheckpointVersionAndIdentityRejected(t *testing.T) {
	dir := t.TempDir()
	f := newFakeHarvest(t)
	newC := func(ckpt string) *Controller {
		c, err := New(Config{
			Candidate: "cand", Baseline: "base",
			Harvest:        &HTTPHarvest{BaseURL: f.srv.URL},
			CheckpointPath: ckpt,
			Clock:          &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return c
	}
	write := func(name string, ck Checkpoint) string {
		path := filepath.Join(dir, name)
		blob, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	verPath := write("version.ckpt", Checkpoint{Version: 99, Candidate: "cand", Baseline: "base", Stage: StageShadow})
	if err := newC(verPath).Start(context.Background()); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("version mismatch error %v", err)
	}

	idPath := write("identity.ckpt", Checkpoint{Version: CheckpointVersion, Candidate: "other", Baseline: "base", Stage: StageShadow})
	if err := newC(idPath).Start(context.Background()); err == nil || !strings.Contains(err.Error(), `tracks other vs base`) {
		t.Fatalf("identity mismatch error %v", err)
	}

	stagePath := write("stage.ckpt", Checkpoint{Version: CheckpointVersion, Candidate: "cand", Baseline: "base", Stage: Stage("sideways")})
	if err := newC(stagePath).Start(context.Background()); err == nil || !strings.Contains(err.Error(), `unknown stage "sideways"`) {
		t.Fatalf("unknown stage error %v", err)
	}

	seqPath := write("seq.ckpt", Checkpoint{Version: CheckpointVersion, Candidate: "cand", Baseline: "base",
		Stage: StageCanary, ShareIdx: 7})
	if err := newC(seqPath).Start(context.Background()); err == nil || !strings.Contains(err.Error(), "canary index 7") {
		t.Fatalf("canary index error %v", err)
	}
}

// TestCheckpointAtomicOverwrite writes checkpoints repeatedly and checks
// the published file always parses — the temp-file + rename protocol never
// exposes a torn write.
func TestCheckpointAtomicOverwrite(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "rollout.ckpt")
	f := newFakeHarvest(t)
	clock := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	c := simController(t, f, clock, nil, func(cfg *Config) { cfg.CheckpointPath = ckpt })
	for i := 0; i < 5; i++ {
		f.feed(300, 0.8, 0.05, 300, 0.5, 0.05)
		clock.Advance(2 * time.Second)
		if _, err := c.Step(context.Background()); err != nil {
			t.Fatalf("Step: %v", err)
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
		blob, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		var ck Checkpoint
		if err := json.Unmarshal(blob, &ck); err != nil {
			t.Fatalf("checkpoint %d unparseable: %v", i, err)
		}
		if ck.Version != CheckpointVersion || ck.Polls != int64(i+1) {
			t.Fatalf("checkpoint %d: version %d polls %d", i, ck.Version, ck.Polls)
		}
	}
}
