package rollout

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harvestd"
	"repro/internal/obs"
	"repro/internal/ope"
)

// simArm accumulates one policy's scripted estimator stream: the test
// appends batches of (count, mean, sd) and the fake harvestd serves the
// cumulative (value, stderr, n) exactly as the real daemon derives them
// from its running sums — so the controller's sum-recovery inversion is
// exercised end to end.
type simArm struct {
	n          int64
	sum, sumSq float64
	essFrac    float64
	clipFrac   float64
}

// addBatch appends dn synthetic observations with the given mean and
// standard deviation.
func (a *simArm) addBatch(dn int64, mean, sd float64) {
	a.n += dn
	a.sum += mean * float64(dn)
	a.sumSq += float64(dn) * (sd*sd + mean*mean)
}

// estimate renders the served (value, stderr) pair from the running sums,
// mirroring harvestd's meanValue derivation.
func (a *simArm) estimate() (value, stderr float64) {
	if a.n == 0 {
		return 0, 0
	}
	nf := float64(a.n)
	value = a.sum / nf
	if a.n > 1 {
		v := (a.sumSq - nf*value*value) / (nf - 1)
		if v < 0 {
			v = 0
		}
		stderr = math.Sqrt(v / nf)
	}
	return value, stderr
}

// fakeHarvest is the scripted harvestd: an httptest server whose /evidence
// replays whatever the current frame holds. The controller talks to it
// through the real HTTPHarvest client, so the whole fetch+decode path is
// under test.
type fakeHarvest struct {
	mu   sync.Mutex
	cand simArm
	base simArm
	// wm scripts the payload's watermark; nil leaves it out (a surface that
	// cannot vouch for its pipeline), which must leave decisions unchanged.
	wm *harvestd.Watermark
	// stamp scripts the payload's stamp, which no gate may read.
	stamp harvestd.EvidenceStamp
	// requests counts every HTTP request the server has answered.
	requests int
	srv      *httptest.Server
}

func newFakeHarvest(t *testing.T) *fakeHarvest {
	t.Helper()
	f := &fakeHarvest{}
	f.cand.essFrac, f.base.essFrac = 1, 1
	arms := map[string]*simArm{"cand": &f.cand, "base": &f.base}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.requests++
		if r.URL.Path != "/evidence" {
			http.NotFound(w, r)
			return
		}
		harvestd.ServeEvidence(w, r, 0.05, func(names []string, _ float64) (harvestd.Evidence, string) {
			ev := harvestd.Evidence{Version: harvestd.EvidenceVersion, Watermark: f.wm, Stamp: f.stamp}
			for _, name := range names {
				a := arms[name]
				if a == nil {
					return harvestd.Evidence{}, name
				}
				ev.Policies = append(ev.Policies, harvestd.PolicyEvidence{
					Estimate: f.policyEstimate(name, a), Diagnostics: f.policyDiag(name, a),
				})
			}
			return ev, ""
		})
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeHarvest) setWatermark(wm *harvestd.Watermark) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.wm = wm
}

func (f *fakeHarvest) policyEstimate(name string, a *simArm) harvestd.PolicyEstimate {
	v, se := a.estimate()
	ev := harvestd.EstimatorValue{Value: v, StdErr: se}
	return harvestd.PolicyEstimate{Policy: name, N: a.n, MatchRate: 1, IPS: ev, ClippedIPS: ev, SNIPS: ev}
}

func (f *fakeHarvest) policyDiag(name string, a *simArm) harvestd.PolicyDiagnostics {
	return harvestd.PolicyDiagnostics{
		Policy: name, N: a.n,
		ESSFraction:  a.essFrac,
		ClipFraction: a.clipFrac,
	}
}

// feed appends one batch per arm under the server lock.
func (f *fakeHarvest) feed(candN int64, candMean, candSD float64, baseN int64, baseMean, baseSD float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cand.addBatch(candN, candMean, candSD)
	f.base.addBatch(baseN, baseMean, baseSD)
}

func (f *fakeHarvest) setCandHealth(essFrac, clipFrac float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cand.essFrac, f.cand.clipFrac = essFrac, clipFrac
}

// shareRecorder is the in-process actuation target.
type shareRecorder struct {
	mu     sync.Mutex
	shares []float64
}

func (s *shareRecorder) SetShare(ctx context.Context, share float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shares = append(s.shares, share)
	return nil
}

func (s *shareRecorder) all() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.shares...)
}

// simController builds a Started controller against the fake harvestd with
// a fixed clock and an hour-long poll interval (the tests drive Step by
// hand; the background loop never fires).
func simController(t *testing.T, f *fakeHarvest, clock *obs.FixedClock, act Actuator, mutate func(*Config)) *Controller {
	t.Helper()
	cfg := Config{
		Candidate:       "cand",
		Baseline:        "base",
		Delta:           0.05,
		CanaryShares:    []float64{0.01, 0.05, 0.25},
		MinStageSamples: 200,
		TermHi:          1,
		ESSFloor:        0.05,
		ClipCeiling:     0.25,
		StaleAfter:      time.Minute,
		PollInterval:    time.Hour,
		Addr:            "127.0.0.1:0",
		Harvest:         &HTTPHarvest{BaseURL: f.srv.URL},
		Actuator:        act,
		Clock:           clock,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c
}

func step(t *testing.T, c *Controller, clock *obs.FixedClock) GateDecision {
	t.Helper()
	clock.Advance(2 * time.Second)
	d, err := c.Step(context.Background())
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	return d
}

// TestSimGoodCandidatePromoted walks a strongly better candidate through
// the whole ramp: every stage accumulates enough cleanly separated
// evidence in one poll, so four polls land it at full exposure, and the
// actuator sees exactly the configured ramp.
func TestSimGoodCandidatePromoted(t *testing.T) {
	f := newFakeHarvest(t)
	clock := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	rec := &shareRecorder{}
	c := simController(t, f, clock, rec, nil)

	stages := []Stage{StageCanary, StageCanary, StageCanary, StageFull}
	shares := []float64{0.01, 0.05, 0.25, 1}
	for i := range stages {
		f.feed(300, 0.8, 0.05, 300, 0.5, 0.05)
		d := step(t, c, clock)
		if d.Outcome != OutcomePromote {
			t.Fatalf("poll %d: outcome %s (%s), want promote", i+1, d.Outcome, d.Reason)
		}
		if d.NextStage != stages[i] || d.NextShare != shares[i] {
			t.Fatalf("poll %d: promoted to %s/%g, want %s/%g",
				i+1, d.NextStage, d.NextShare, stages[i], shares[i])
		}
	}
	if got := c.Stage(); got != StageFull {
		t.Fatalf("final stage %s, want %s", got, StageFull)
	}
	// At full, further polls only monitor.
	f.feed(300, 0.8, 0.05, 300, 0.5, 0.05)
	if d := step(t, c, clock); d.Outcome != OutcomeHold || !strings.Contains(d.Reason, "full exposure") {
		t.Fatalf("post-full outcome %s (%s), want monitoring hold", d.Outcome, d.Reason)
	}
	want := []float64{0, 0.01, 0.05, 0.25, 1} // initial assert + ramp
	if got := rec.all(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("actuated shares %v, want %v", got, want)
	}
}

// TestSimStepIsOneRequest counts what a control cycle costs the harvest
// surface: one GET /evidence per Step, whatever the outcome.
func TestSimStepIsOneRequest(t *testing.T) {
	f := newFakeHarvest(t)
	clock := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	c := simController(t, f, clock, nil, nil)
	f.setWatermark(&harvestd.Watermark{Seq: 1, AgeSeconds: 0.1})
	for i := 1; i <= 3; i++ {
		f.feed(300, 0.8, 0.05, 300, 0.5, 0.05)
		step(t, c, clock)
		f.mu.Lock()
		got := f.requests
		f.mu.Unlock()
		if got != i {
			t.Fatalf("after %d steps the harvest surface answered %d requests, want %d", i, got, i)
		}
	}
}

// TestSimColdStartDecisionEncodes pins the n=0 path: before any data
// arrives, the gate interval's concentration radius is infinite, and an
// unclamped ±Inf bound in the decision record would make every later
// /gates render and checkpoint write fail (encoding/json rejects ±Inf).
// The recorded arms must instead carry the a-priori term range.
func TestSimColdStartDecisionEncodes(t *testing.T) {
	f := newFakeHarvest(t)
	clock := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	ckpt := filepath.Join(t.TempDir(), "rollout.ckpt")
	c := simController(t, f, clock, nil, func(cfg *Config) { cfg.CheckpointPath = ckpt })

	d := step(t, c, clock)
	if d.Outcome != OutcomeHold {
		t.Fatalf("cold-start outcome %s (%s), want hold", d.Outcome, d.Reason)
	}
	for _, arm := range []GateArm{d.Candidate, d.Baseline} {
		if arm.Lo != 0 || arm.Hi != 1 {
			t.Fatalf("%s interval [%v, %v], want the a-priori term range [0, 1]", arm.Policy, arm.Lo, arm.Hi)
		}
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("cold-start decision does not encode: %v", err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with a cold-start decision in the ring: %v", err)
	}
	resp, err := http.Get(c.URL() + "/gates")
	if err != nil {
		t.Fatalf("GET /gates: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var gates []GateDecision
	if err := json.NewDecoder(resp.Body).Decode(&gates); err != nil {
		t.Fatalf("/gates is not valid JSON with a cold-start decision: %v", err)
	}
	if len(gates) != 1 || gates[0].Outcome != OutcomeHold {
		t.Fatalf("gates = %+v, want the one cold-start hold", gates)
	}
	// The API is read-only: mutating methods are refused.
	post, err := http.Post(c.URL()+"/status", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("POST /status: %v", err)
	}
	_ = post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /status = %d, want %d", post.StatusCode, http.StatusMethodNotAllowed)
	}
}

// TestSimBadCandidateRolledBackAtCanary promotes on good shadow evidence,
// then flips the candidate's live stream to clearly worse: the sequential
// monitor (reset at the canary boundary, so it sees only canary-era
// increments) decides for the baseline and the controller rolls back,
// zeroing the actuated share.
func TestSimBadCandidateRolledBackAtCanary(t *testing.T) {
	f := newFakeHarvest(t)
	clock := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	rec := &shareRecorder{}
	c := simController(t, f, clock, rec, nil)

	f.feed(300, 0.8, 0.05, 300, 0.5, 0.05)
	if d := step(t, c, clock); d.Outcome != OutcomePromote {
		t.Fatalf("shadow outcome %s (%s), want promote", d.Outcome, d.Reason)
	}
	f.feed(300, 0.2, 0.05, 300, 0.5, 0.05)
	d := step(t, c, clock)
	if d.Outcome != OutcomeRollback {
		t.Fatalf("canary outcome %s (%s), want rollback", d.Outcome, d.Reason)
	}
	if !strings.Contains(d.Reason, "sequential test decided against") {
		t.Fatalf("rollback reason %q, want sequential regression", d.Reason)
	}
	if d.NextStage != StageRolledBack || d.NextShare != 0 {
		t.Fatalf("rollback landed at %s/%g, want %s/0", d.NextStage, d.NextShare, StageRolledBack)
	}
	if got := c.Stage(); got != StageRolledBack {
		t.Fatalf("final stage %s, want %s", got, StageRolledBack)
	}
	shares := rec.all()
	if len(shares) == 0 || shares[len(shares)-1] != 0 {
		t.Fatalf("actuated shares %v, want trailing 0", shares)
	}
	// Terminal: further polls decide nothing and record nothing.
	before := len(c.Gates())
	f.feed(300, 0.9, 0.05, 300, 0.5, 0.05)
	d, err := c.Step(context.Background())
	if err != nil {
		t.Fatalf("terminal Step: %v", err)
	}
	if d.Outcome != OutcomeNone {
		t.Fatalf("terminal outcome %s, want none", d.Outcome)
	}
	if got := len(c.Gates()); got != before {
		t.Fatalf("terminal step recorded a gate (%d -> %d)", before, got)
	}
}

// TestSimFlatCandidateHeld keeps the arms statistically identical: the
// intervals never separate, so the controller holds in shadow forever
// (and never actuates a nonzero share).
func TestSimFlatCandidateHeld(t *testing.T) {
	f := newFakeHarvest(t)
	clock := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	rec := &shareRecorder{}
	c := simController(t, f, clock, rec, nil)

	for i := 0; i < 5; i++ {
		f.feed(300, 0.5, 0.05, 300, 0.5, 0.05)
		d := step(t, c, clock)
		if d.Outcome != OutcomeHold {
			t.Fatalf("poll %d: outcome %s (%s), want hold", i+1, d.Outcome, d.Reason)
		}
		if !strings.Contains(d.Reason, "EB intervals overlap") {
			t.Fatalf("poll %d: hold reason %q, want interval overlap", i+1, d.Reason)
		}
	}
	if got := c.Stage(); got != StageShadow {
		t.Fatalf("final stage %s, want %s", got, StageShadow)
	}
	if got := rec.all(); fmt.Sprint(got) != "[0]" {
		t.Fatalf("actuated shares %v, want only the initial 0", got)
	}
}

// TestSimESSCollapseRollsBack promotes into canary, then collapses the
// candidate's effective sample size below the floor: the health guard
// fires before any evidence guard and rolls back.
func TestSimESSCollapseRollsBack(t *testing.T) {
	f := newFakeHarvest(t)
	clock := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	rec := &shareRecorder{}
	c := simController(t, f, clock, rec, nil)

	f.feed(300, 0.8, 0.05, 300, 0.5, 0.05)
	if d := step(t, c, clock); d.Outcome != OutcomePromote {
		t.Fatalf("shadow outcome %s (%s), want promote", d.Outcome, d.Reason)
	}
	f.feed(300, 0.8, 0.05, 300, 0.5, 0.05)
	f.setCandHealth(0.01, 0)
	d := step(t, c, clock)
	if d.Outcome != OutcomeRollback {
		t.Fatalf("outcome %s (%s), want rollback", d.Outcome, d.Reason)
	}
	if !strings.Contains(d.Reason, "estimator health collapsed") {
		t.Fatalf("rollback reason %q, want health collapse", d.Reason)
	}
	var essCheck *GateCheck
	for i := range d.Checks {
		if d.Checks[i].Name == "ess" {
			essCheck = &d.Checks[i]
		}
	}
	if essCheck == nil || essCheck.OK {
		t.Fatalf("ess check missing or OK in %+v", d.Checks)
	}
	if shares := rec.all(); shares[len(shares)-1] != 0 {
		t.Fatalf("actuated shares %v, want trailing 0", shares)
	}
}

// TestSimStaleEstimatesRollBack freezes the candidate stream mid-canary:
// once no new samples arrive for longer than StaleAfter, the controller
// refuses to keep a canary running on a dead estimate and rolls back.
func TestSimStaleEstimatesRollBack(t *testing.T) {
	f := newFakeHarvest(t)
	clock := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	rec := &shareRecorder{}
	c := simController(t, f, clock, rec, nil)

	f.feed(300, 0.8, 0.05, 300, 0.5, 0.05)
	if d := step(t, c, clock); d.Outcome != OutcomePromote {
		t.Fatalf("shadow outcome %s (%s), want promote", d.Outcome, d.Reason)
	}
	// No new candidate data; clock marches past the staleness window.
	var last GateDecision
	for i := 0; i < 40; i++ {
		last = step(t, c, clock)
		if last.Outcome == OutcomeRollback {
			break
		}
	}
	if last.Outcome != OutcomeRollback || !strings.Contains(last.Reason, "stale") {
		t.Fatalf("outcome %s (%s), want staleness rollback", last.Outcome, last.Reason)
	}
}

// TestSimWatermarkGate drives the pipeline-watermark guard through its
// three regimes: evidence without a watermark (no check at all — the
// decision records stay exactly as they were), a fresh watermark (check passes), and a
// watermark older than StaleAfter (rollback even while sample counts are
// still growing — the case the count-based staleness guard cannot see).
func TestSimWatermarkGate(t *testing.T) {
	f := newFakeHarvest(t)
	clock := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	rec := &shareRecorder{}
	c := simController(t, f, clock, rec, nil)

	checkOf := func(d GateDecision, name string) *GateCheck {
		for i := range d.Checks {
			if d.Checks[i].Name == name {
				return &d.Checks[i]
			}
		}
		return nil
	}

	// Regime 1: no watermark in the evidence — the guard must not appear.
	f.feed(300, 0.8, 0.05, 300, 0.5, 0.05)
	d := step(t, c, clock)
	if d.Outcome != OutcomePromote {
		t.Fatalf("poll 1 outcome %s (%s), want promote", d.Outcome, d.Reason)
	}
	if checkOf(d, "watermark") != nil {
		t.Fatalf("watermark check present without a served watermark: %+v", d.Checks)
	}

	// Regime 2: a fresh watermark passes and is recorded as evidence.
	f.setWatermark(&harvestd.Watermark{Seq: 900, AgeSeconds: 1.5, Behind: 2})
	f.feed(300, 0.8, 0.05, 300, 0.5, 0.05)
	d = step(t, c, clock)
	if d.Outcome != OutcomePromote {
		t.Fatalf("poll 2 outcome %s (%s), want promote", d.Outcome, d.Reason)
	}
	wc := checkOf(d, "watermark")
	if wc == nil || !wc.OK {
		t.Fatalf("watermark check missing or failed with fresh watermark: %+v", d.Checks)
	}
	if !strings.Contains(wc.Detail, "1.5s") || !strings.Contains(wc.Detail, "seq 900") {
		t.Fatalf("watermark detail %q lacks the evidence", wc.Detail)
	}

	// Regime 3: the shard keeps answering and counts keep growing, but its
	// fold watermark is older than StaleAfter (1m) — rollback.
	f.setWatermark(&harvestd.Watermark{Seq: 900, AgeSeconds: 120, Behind: 5000})
	f.feed(300, 0.8, 0.05, 300, 0.5, 0.05)
	d = step(t, c, clock)
	if d.Outcome != OutcomeRollback || !strings.Contains(d.Reason, "fold watermark age 120s") {
		t.Fatalf("poll 3 outcome %s (%s), want watermark rollback", d.Outcome, d.Reason)
	}
	if wc := checkOf(d, "watermark"); wc == nil || wc.OK {
		t.Fatalf("failed watermark check not recorded: %+v", d.Checks)
	}
	if got := c.Stage(); got != StageRolledBack {
		t.Fatalf("final stage %s, want %s", got, StageRolledBack)
	}
}

// TestSimExactGateDecisionJSON pins one complete gate-decision record: the
// controller's serialized decision must be byte-identical to an expected
// record constructed independently from the same scripted inputs — the
// machine-readable audit contract.
func TestSimExactGateDecisionJSON(t *testing.T) {
	f := newFakeHarvest(t)
	clock := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
	c := simController(t, f, clock, nil, nil)

	f.feed(256, 0.75, 0.0625, 256, 0.25, 0.0625)
	d := step(t, c, clock)
	got, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruct the record from first principles: the served estimates,
	// the gate interval the controller must have computed, and the
	// increment-fed sequential state.
	candV, candSE := f.cand.estimate()
	baseV, baseSE := f.base.estimate()
	candIv := ope.HighConfidenceInterval(ope.Estimate{Value: candV, StdErr: candSE, N: 256}, 1, 0.05)
	baseIv := ope.HighConfidenceInterval(ope.Estimate{Value: baseV, StdErr: baseSE, N: 256}, 1, 0.05)
	want := GateDecision{
		Seq:           1,
		TimeUnixMilli: time.Unix(1700000002, 0).UnixMilli(),
		Stage:         StageShadow,
		Share:         0,
		Outcome:       OutcomePromote,
		Reason:        "EB separation and sequential test agree: candidate better (objective max)",
		NextStage:     StageCanary,
		NextShare:     0.01,
		Candidate: GateArm{
			Policy: "cand", N: 256, Value: candV, StdErr: candSE,
			Lo: candIv.Lo, Hi: candIv.Hi, ESSFraction: 1,
		},
		Baseline: GateArm{
			Policy: "base", N: 256, Value: baseV, StdErr: baseSE,
			Lo: baseIv.Lo, Hi: baseIv.Hi, ESSFraction: 1,
		},
		Checks: []GateCheck{
			{Name: "staleness", OK: true, Detail: "no new candidate samples for 0s (limit 1m0s)"},
			{Name: "ess", OK: true, Detail: "candidate ESS fraction 1 (floor 0.05)"},
			{Name: "clip", OK: true, Detail: "candidate clip fraction 0 (ceiling 0.25)"},
			{Name: "eb_separation", OK: true, Detail: fmt.Sprintf(
				"candidate [%g, %g] vs baseline [%g, %g] (objective max)",
				candIv.Lo, candIv.Hi, baseIv.Lo, baseIv.Hi)},
			{Name: "sequential", OK: true, Detail: "decided=true winner=arm1 n0=256 n1=256"},
			{Name: "min_samples", OK: true, Detail: "256/200 new candidate samples this stage"},
		},
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("gate decision JSON mismatch:\n got: %s\nwant: %s", got, wantJSON)
	}
}

// TestSimGatesByteIdenticalAcrossWorkers replays the same scripted
// estimate sequence against controllers watching surfaces that differ only
// in shape — one daemon, or sixteen shards behind an aggregator — and
// therefore in nothing the gates may read (the evidence stamp): the full
// /gates histories must be byte-identical.
func TestSimGatesByteIdenticalAcrossWorkers(t *testing.T) {
	run := func(shards int) []byte {
		f := newFakeHarvest(t)
		f.stamp = harvestd.EvidenceStamp{Folded: int64(shards), LiveShards: shards, TotalShards: shards}
		clock := &obs.FixedClock{T: time.Unix(1700000000, 0).UTC()}
		c := simController(t, f, clock, nil, nil)
		// Good, then flat, then regressing — touch every outcome.
		script := []struct{ candMean, baseMean float64 }{
			{0.8, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.2, 0.5}, {0.2, 0.5},
		}
		for _, s := range script {
			f.feed(300, s.candMean, 0.05, 300, s.baseMean, 0.05)
			clock.Advance(2 * time.Second)
			if _, err := c.Step(context.Background()); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
		resp, err := http.Get(c.URL() + "/gates")
		if err != nil {
			t.Fatalf("GET /gates: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	a, b := run(1), run(16)
	if !bytes.Equal(a, b) {
		t.Fatalf("/gates history differs across worker counts:\n%s\nvs\n%s", a, b)
	}
	if len(a) < 100 {
		t.Fatalf("suspiciously small /gates body: %s", a)
	}
}
