// Package fleet federates N harvestd shards behind an aggregation tier:
// each shard ingests its own sources, and an Aggregator periodically pulls
// each shard's /snapshot, merges the order-insensitive estimator state, and
// serves fleet-wide estimates, diagnostics, and metrics from the merged
// view — the fan-in aggregation shape of cosi-style protocol trees,
// flattened to one tier because the estimator state is a few KB per shard.
//
//	sources ──▶ shard harvestd₁..N (own logs, checkpoints, /snapshot)
//	                 │pull (HTTP, timeout+backoff, stale window)
//	  aggregator ◀───┘
//	  /estimates /evidence /diagnostics /freshness /metrics /shards ◀── merged state
package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/harvestd"
	"repro/internal/obs"
	"repro/internal/ope"
)

// Shard names one harvestd shard and where to pull its snapshot from.
type Shard struct {
	Name string `json:"name"`
	URL  string `json:"url"` // base URL, e.g. http://10.0.0.3:8347
}

// Config tunes the aggregator. The zero value is usable: defaults fill in.
type Config struct {
	// Shards is the fixed fleet membership. At least one is required.
	Shards []Shard
	// PullInterval is the per-shard snapshot poll period. Default 2s.
	PullInterval time.Duration
	// PullTimeout bounds one snapshot request. Default 5s.
	PullTimeout time.Duration
	// MaxBackoff caps the exponential retry backoff after consecutive pull
	// failures. Default 30s.
	MaxBackoff time.Duration
	// StaleAfter is the tolerance window: a shard whose last successful
	// pull is older than this is dropped from the merged view (coverage
	// shrinks, intervals widen) until it recovers. <= 0 means never drop —
	// the last snapshot is merged forever. Default 30s.
	StaleAfter time.Duration
	// Delta is the default interval failure probability. Default 0.05.
	Delta float64
	// Addr is the HTTP listen address; empty disables the API (tests can
	// drive the aggregator in-process); "127.0.0.1:0" picks a free port.
	Addr string
	// CheckpointPath enables aggregator checkpointing; empty disables.
	CheckpointPath string
	// CheckpointInterval is the timer between checkpoints. Default 30s.
	CheckpointInterval time.Duration
	// Clock supplies timestamps for staleness and uptime. Default wall
	// clock; tests inject obs.FixedClock for deterministic staleness.
	Clock obs.Clock
	// Client issues the snapshot pulls; nil uses a dedicated client (the
	// per-pull timeout still applies via request contexts).
	Client *http.Client
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.PullInterval <= 0 {
		c.PullInterval = 2 * time.Second
	}
	if c.PullTimeout <= 0 {
		c.PullTimeout = 5 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.StaleAfter == 0 {
		c.StaleAfter = 30 * time.Second
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		c.Delta = 0.05
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = obs.WallClock()
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// shardState is the aggregator's view of one shard: the last snapshot it
// delivered and the pull bookkeeping that decides liveness and backoff.
type shardState struct {
	shard Shard

	mu          sync.Mutex
	snap        *harvestd.StateSnapshot
	lastSuccess time.Time // zero: never pulled successfully
	lastErr     string
	failures    int // consecutive pull failures
	fresh       *harvestd.FreshnessReport
	freshAt     time.Time // when fresh was pulled; zero: never

	pulls      atomic.Int64
	pullErrors atomic.Int64
	restarts   atomic.Int64 // snapshot Seq regressions observed
}

// Aggregator federates the shards: it pulls snapshots, merges estimator
// state, and serves the fleet-wide read API. One Aggregator instance runs
// per fleet (or per region, with another tier above — the merge is
// associative, so tiers compose).
type Aggregator struct {
	cfg    Config
	shards []*shardState // sorted by name: the canonical merge order
	obsReg *obs.Registry
	start  time.Time

	checkpoints atomic.Int64

	stateMu sync.Mutex
	running bool

	loopCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup // pull loops and the checkpoint timer
	ckpt    daemon.Checkpointer

	api *daemon.Server
}

// New builds an aggregator over the configured shard fleet.
func New(cfg Config) (*Aggregator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fleet: aggregator needs at least one shard")
	}
	cfg.fillDefaults()
	shards := append([]Shard(nil), cfg.Shards...)
	sort.Slice(shards, func(i, j int) bool { return shards[i].Name < shards[j].Name })
	a := &Aggregator{cfg: cfg}
	for i, s := range shards {
		switch {
		case s.URL == "":
			return nil, fmt.Errorf("fleet: shard %q has no URL", s.Name)
		case s.Name == "":
			return nil, fmt.Errorf("fleet: empty shard name")
		case i > 0 && shards[i-1].Name == s.Name:
			return nil, fmt.Errorf("fleet: duplicate shard %q", s.Name)
		}
		a.shards = append(a.shards, &shardState{shard: s})
	}
	a.ckpt = daemon.Checkpointer{
		Path: cfg.CheckpointPath, Interval: cfg.CheckpointInterval,
		Save: a.Checkpoint, Name: "harvestagg", Logf: cfg.Logf,
	}
	a.initMetrics()
	return a, nil
}

// Metrics returns the aggregator's obs registry.
func (a *Aggregator) Metrics() *obs.Registry { return a.obsReg }

// Start resumes from the checkpoint (when one exists), launches one pull
// loop per shard, the checkpoint timer, and the HTTP API, then returns. The
// aggregator runs until Shutdown.
func (a *Aggregator) Start(ctx context.Context) error {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	if a.running {
		return fmt.Errorf("fleet: aggregator already started")
	}

	if err := a.ckpt.Resume(func() (string, error) {
		n, err := a.loadCheckpoint()
		return fmt.Sprintf("%d shard snapshots", n), err
	}); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}

	api, err := daemon.Listen(a.cfg.Addr)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	a.api = api

	a.start = a.cfg.Clock.Now()
	a.loopCtx, a.cancel = context.WithCancel(ctx)
	for _, st := range a.shards {
		a.wg.Add(1)
		go a.pullLoop(st)
	}

	a.ckpt.StartTimer(a.loopCtx, &a.wg)

	if a.api != nil {
		a.api.Serve(a.handler())
		a.cfg.Logf("harvestagg: serving on %s (%d shards)", a.api.URL(), len(a.shards))
	}

	a.running = true
	return nil
}

// Addr returns the API's host:port (empty when the API is disabled or the
// aggregator has not started).
func (a *Aggregator) Addr() string {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	return a.api.Addr()
}

// URL returns the API's base URL (after Start).
func (a *Aggregator) URL() string { return "http://" + a.Addr() }

// pullLoop polls one shard forever: an immediate first pull, then the
// configured interval, stretched exponentially (capped at MaxBackoff) while
// the shard keeps failing so a dead shard costs one cheap request per
// backoff period instead of hammering a struggling one.
func (a *Aggregator) pullLoop(st *shardState) {
	defer a.wg.Done()
	for {
		err := a.pullShard(a.loopCtx, st)
		if err != nil && a.loopCtx.Err() == nil {
			a.cfg.Logf("harvestagg: pull %s: %v", st.shard.Name, err)
		}
		st.mu.Lock()
		failures := st.failures
		st.mu.Unlock()
		delay := a.cfg.PullInterval
		for i := 0; i < failures && delay < a.cfg.MaxBackoff; i++ {
			delay *= 2
		}
		if delay > a.cfg.MaxBackoff {
			delay = a.cfg.MaxBackoff
		}
		select {
		case <-a.loopCtx.Done():
			return
		case <-time.After(delay):
		}
	}
}

// pullShard fetches one watermark report and one snapshot from the shard
// and installs them together, recording success or failure for liveness
// and backoff.
func (a *Aggregator) pullShard(ctx context.Context, st *shardState) error {
	st.pulls.Add(1)
	pctx, cancel := context.WithTimeout(ctx, a.cfg.PullTimeout)
	defer cancel()
	// The watermark report is fetched before the snapshot: a record folded
	// between the two requests then shows in the estimates and not yet in
	// the watermark, never the reverse. It is a best-effort ride-along — a
	// failed (or absent) /freshness never fails the pull, the shard just
	// keeps its previous, older report.
	fresh, freshErr := fetchFreshness(pctx, a.cfg.Client, st.shard.URL)
	if freshErr != nil {
		a.cfg.Logf("harvestagg: freshness %s: %v", st.shard.Name, freshErr)
	}
	snap, err := fetchSnapshot(pctx, a.cfg.Client, st.shard.URL)
	if err != nil {
		st.pullErrors.Add(1)
		st.mu.Lock()
		st.failures++
		st.lastErr = err.Error()
		st.mu.Unlock()
		return err
	}
	st.mu.Lock()
	if st.snap != nil && snap.Seq < st.snap.Seq {
		st.restarts.Add(1)
	}
	st.snap = snap
	st.lastSuccess = a.cfg.Clock.Now()
	st.failures = 0
	st.lastErr = ""
	if fresh != nil {
		st.fresh = fresh
		st.freshAt = st.lastSuccess
	}
	st.mu.Unlock()
	return nil
}

// fetchSnapshot performs one GET {base}/snapshot and decodes the result.
func fetchSnapshot(ctx context.Context, client *http.Client, base string) (snap *harvestd.StateSnapshot, err error) {
	err = daemon.Get(ctx, client, base+"/snapshot", func(body io.Reader) error {
		snap, err = harvestd.DecodeSnapshot(body)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return snap, nil
}

// PullAll pulls every shard once, synchronously — the startup warm-up. It
// returns the first error but attempts every shard regardless.
func (a *Aggregator) PullAll(ctx context.Context) error {
	var first error
	for _, st := range a.shards {
		if err := a.pullShard(ctx, st); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShardStatus is one shard's health row in the fleet view.
type ShardStatus struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Live reports whether the shard's state is included in the merged
	// estimates: it has delivered a snapshot whose age is inside the
	// staleness window.
	Live bool `json:"live"`
	// Stale reports a shard that has data but aged out of the window.
	Stale bool `json:"stale"`
	// AgeSeconds is the time since the last successful pull (-1: never).
	AgeSeconds float64 `json:"age_seconds"`
	// Seq is the last snapshot's sequence number (0: none).
	Seq int64 `json:"seq"`
	// N is the last snapshot's folded-datapoint count.
	N int64 `json:"n"`
	// ConsecutiveFailures counts pull failures since the last success.
	ConsecutiveFailures int    `json:"consecutive_failures"`
	LastError           string `json:"last_error,omitempty"`
	// Restarts counts observed snapshot-sequence regressions.
	Restarts int64 `json:"restarts"`
}

// View is a point-in-time merged view of the fleet: per-shard health plus
// the merged per-policy accumulators over the live shards. Merging walks
// shards in sorted-name order — a pure function of the snapshot set, so the
// served estimates never depend on pull arrival order.
type View struct {
	Shards      []ShardStatus
	Merged      map[string]ope.Accum
	Counters    harvestd.SnapshotCounters
	LiveShards  int
	TotalShards int
	EvalPanics  int64
	Clip        float64 // from the first live shard (shards share settings)
	Floor       float64
}

// View merges the current snapshot set.
func (a *Aggregator) View() View {
	now := a.cfg.Clock.Now()
	v := View{
		Merged:      make(map[string]ope.Accum),
		TotalShards: len(a.shards),
	}
	for _, st := range a.shards {
		st.mu.Lock()
		snap := st.snap
		lastSuccess := st.lastSuccess
		status := ShardStatus{
			Name:                st.shard.Name,
			URL:                 st.shard.URL,
			AgeSeconds:          -1,
			ConsecutiveFailures: st.failures,
			LastError:           st.lastErr,
			Restarts:            st.restarts.Load(),
		}
		st.mu.Unlock()
		if snap != nil {
			status.Seq = snap.Seq
			status.N = snap.Counters.Folded
		}
		if !lastSuccess.IsZero() {
			status.AgeSeconds = now.Sub(lastSuccess).Seconds()
		}
		fresh := a.live(now, snap, lastSuccess)
		status.Live = fresh
		status.Stale = snap != nil && !fresh
		v.Shards = append(v.Shards, status)
		if !fresh {
			continue
		}
		if v.LiveShards == 0 {
			v.Clip, v.Floor = snap.Clip, snap.Floor
		}
		v.LiveShards++
		v.Counters.Add(snap.Counters)
		v.EvalPanics += snap.EvalPanics
		for name, acc := range snap.Policies {
			merged := v.Merged[name]
			merged.Merge(&acc)
			v.Merged[name] = merged
		}
	}
	return v
}

// live reports whether a shard's state belongs in the merged view: it has
// delivered a snapshot, and the last successful pull is inside the
// staleness window.
func (a *Aggregator) live(now time.Time, snap *harvestd.StateSnapshot, lastSuccess time.Time) bool {
	return snap != nil && (a.cfg.StaleAfter <= 0 || now.Sub(lastSuccess) <= a.cfg.StaleAfter)
}

// policyNames returns the merged view's policy names, sorted.
func (v *View) policyNames() []string {
	names := make([]string, 0, len(v.Merged))
	for name := range v.Merged {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Estimates reports the fleet-wide per-policy estimates at confidence
// 1−delta, in the same shape (and, for identical merged state, the same
// bytes) as a single harvestd's /estimates.
func (v *View) Estimates(delta float64) []ope.PolicyEstimate {
	names := v.policyNames()
	out := make([]ope.PolicyEstimate, len(names))
	for i, name := range names {
		acc := v.Merged[name]
		out[i] = acc.Estimate(name, delta)
	}
	return out
}

// Diagnostics reports the fleet-wide estimator-health view per policy.
func (v *View) Diagnostics() []ope.PolicyDiagnostics {
	names := v.policyNames()
	out := make([]ope.PolicyDiagnostics, len(names))
	for i, name := range names {
		acc := v.Merged[name]
		out[i] = acc.Diagnostics(name)
	}
	return out
}

// Estimates is the aggregator-level convenience over the current view.
func (a *Aggregator) Estimates(delta float64) []ope.PolicyEstimate {
	v := a.View()
	return v.Estimates(delta)
}

// Shutdown stops the aggregator: pull loops stop, a final checkpoint is
// written, and the HTTP listener closes.
func (a *Aggregator) Shutdown(ctx context.Context) error {
	a.stateMu.Lock()
	if !a.running {
		a.stateMu.Unlock()
		return nil
	}
	a.running = false
	a.stateMu.Unlock()

	a.cancel()
	a.wg.Wait()

	ckptErr := a.ckpt.Final()
	srvErr := a.api.Shutdown(ctx)
	if ckptErr != nil {
		return fmt.Errorf("fleet: %w", ckptErr)
	}
	return srvErr
}
