// Package obswatch is the fleet health watcher: it scrapes every OPE
// daemon's /metrics (plus /freshness on harvest surfaces and /gates on
// rollout controllers) on a fixed cadence, keeps bounded ring-buffer time
// series of everything it sees, and evaluates a declarative alert-rule
// table over the latest samples with for-duration hysteresis. Every alert
// transition (open, resolve) is appended as a versioned incident record to
// a JSONL file — the fleet's machine-readable pager history.
//
// The watcher is deterministic by construction: time flows through an
// injected obs.Clock, one scrape-and-evaluate round is the explicit Tick
// method (the background loop just calls it on a ticker), and targets,
// rules, and series are always walked in a canonical order — scripted
// frames through a fixed clock therefore produce byte-identical incident
// logs.
package obswatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
)

// Target kinds. The kind selects which endpoints are scraped beyond
// /metrics: harvest surfaces serve /freshness, rollout controllers /gates.
const (
	KindLBD        = "lbd"
	KindHarvestd   = "harvestd"
	KindHarvestagg = "harvestagg"
	KindRolloutd   = "rolloutd"
)

// Target is one daemon under watch.
type Target struct {
	// Kind is one of the Kind* constants ("" scrapes /metrics only).
	Kind string
	// Name keys the target's series and alerts; unique per watcher.
	Name string
	// URL is the daemon's base URL (no trailing slash).
	URL string
}

// hasFreshness reports whether the target's kind serves /freshness.
func (t Target) hasFreshness() bool {
	return t.Kind == KindHarvestd || t.Kind == KindHarvestagg
}

// Config parameterizes a Watcher.
type Config struct {
	// Targets are the daemons to scrape, in evaluation order.
	Targets []Target
	// Rules is the alert table; nil means no alerting (series only).
	Rules []Rule
	// Interval is the scrape period for the background loop; <= 0 disables
	// the loop entirely (tests then drive Tick by hand).
	Interval time.Duration
	// ScrapeTimeout bounds each HTTP fetch (default 5s).
	ScrapeTimeout time.Duration
	// SeriesCap is each ring buffer's sample capacity (default 512).
	SeriesCap int
	// FlapWindow is how many trailing gate decisions the flap detector
	// inspects on rolloutd targets (default 10).
	FlapWindow int
	// IncidentW receives one JSON line per alert transition; nil discards.
	IncidentW io.Writer
	// Addr is the HTTP API listen address; "" picks an ephemeral localhost
	// port.
	Addr string
	// Client is the scrape client (default: one with ScrapeTimeout).
	Client *http.Client
	// Clock supplies all timestamps (default wall clock).
	Clock obs.Clock
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Watcher scrapes the fleet and maintains series + alert state.
type Watcher struct {
	cfg Config

	mu sync.Mutex
	// series is target name → series key → ring buffer. Keys are the raw
	// exposition series ("name" or `name{label="v"}`), plus the watcher's
	// own watch_* synthetics.
	series map[string]map[string]*Series
	// alerts is alert key (rule|target|series) → live state.
	alerts map[string]*alertState
	// tstat tracks per-target scrape health.
	tstat []targetStatus
	// incidentSeq numbers incident records from 1.
	incidentSeq int64
	ticks       int64

	start time.Time
	reg   *obs.Registry
	met   watchMetrics

	stateMu sync.Mutex
	running bool
	api     *daemon.Server
	loopCtx context.Context
	cancel  context.CancelFunc
	loop    sync.WaitGroup // the scrape loop
}

// targetStatus is one target's scrape health, indexed like cfg.Targets.
type targetStatus struct {
	up            bool
	lastScrape    time.Time
	lastErr       string
	scrapes       int64
	scrapeErrors  int64
	seriesScraped int
}

// New validates the configuration and builds a stopped watcher.
func New(cfg Config) (*Watcher, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("obswatch: no targets")
	}
	seen := map[string]bool{}
	for i, t := range cfg.Targets {
		if t.Name == "" || t.URL == "" {
			return nil, fmt.Errorf("obswatch: target %d: name and URL required", i)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("obswatch: duplicate target name %q", t.Name)
		}
		seen[t.Name] = true
		cfg.Targets[i].URL = strings.TrimSuffix(t.URL, "/")
	}
	for i, r := range cfg.Rules {
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("obswatch: rule %d (%s): %w", i, r.Name, err)
		}
	}
	if cfg.ScrapeTimeout <= 0 {
		cfg.ScrapeTimeout = 5 * time.Second
	}
	if cfg.SeriesCap <= 0 {
		cfg.SeriesCap = 512
	}
	if cfg.FlapWindow <= 0 {
		cfg.FlapWindow = 10
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.ScrapeTimeout}
	}
	if cfg.Clock == nil {
		cfg.Clock = obs.WallClock()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	w := &Watcher{
		cfg:    cfg,
		series: make(map[string]map[string]*Series, len(cfg.Targets)),
		alerts: map[string]*alertState{},
		tstat:  make([]targetStatus, len(cfg.Targets)),
		start:  cfg.Clock.Now(),
	}
	for _, t := range cfg.Targets {
		w.series[t.Name] = map[string]*Series{}
	}
	w.initMetrics()
	return w, nil
}

// Start opens the listener and, when an interval is configured, launches
// the scrape loop. The first Tick runs immediately so /alerts and /series
// are populated as soon as the API is reachable.
func (w *Watcher) Start(ctx context.Context) error {
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	if w.running {
		return fmt.Errorf("obswatch: already started")
	}
	addr := w.cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	api, err := daemon.Listen(addr)
	if err != nil {
		return fmt.Errorf("obswatch: %w", err)
	}
	w.api = api
	api.Serve(w.handler())

	w.loopCtx, w.cancel = context.WithCancel(context.WithoutCancel(ctx))
	if w.cfg.Interval > 0 {
		// The first round runs at once, then one every Interval.
		w.loop.Add(1)
		go func() {
			defer w.loop.Done()
			tick := func() { w.Tick(w.loopCtx) }
			tick()
			daemon.Every(w.loopCtx, w.cfg.Interval, tick)
		}()
	}
	w.running = true
	w.cfg.Logf("fleetwatch: watching %d targets on %s", len(w.cfg.Targets), api.URL())
	return nil
}

// Addr returns the API's host:port (after Start).
func (w *Watcher) Addr() string {
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	return w.api.Addr()
}

// URL returns the API's base URL (after Start).
func (w *Watcher) URL() string { return "http://" + w.Addr() }

// Shutdown stops the loop and the HTTP server.
func (w *Watcher) Shutdown(ctx context.Context) error {
	w.stateMu.Lock()
	if !w.running {
		w.stateMu.Unlock()
		return nil
	}
	w.running = false
	w.stateMu.Unlock()
	w.cancel()
	w.loop.Wait()
	return w.api.Shutdown(ctx)
}

// Tick performs one scrape-and-evaluate round: every target is scraped in
// configuration order, samples land in the ring buffers, and the rule
// table runs against the fresh state. It is the unit the deterministic
// simulation tests drive directly.
func (w *Watcher) Tick(ctx context.Context) {
	now := w.cfg.Clock.Now()
	type scraped struct {
		up      bool
		errMsg  string
		samples map[string]float64
	}
	results := make([]scraped, len(w.cfg.Targets))
	for i, t := range w.cfg.Targets {
		samples, err := w.scrapeTarget(ctx, t)
		results[i] = scraped{up: err == nil, samples: samples}
		if err != nil {
			results[i].errMsg = err.Error()
			if ctx.Err() == nil {
				w.cfg.Logf("fleetwatch: scrape %s: %v", t.Name, err)
			}
		}
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	w.ticks++
	w.met.scrapes.Inc()
	for i, t := range w.cfg.Targets {
		res := results[i]
		st := &w.tstat[i]
		st.up = res.up
		st.lastScrape = now
		st.lastErr = res.errMsg
		st.scrapes++
		if !res.up {
			st.scrapeErrors++
			w.met.scrapeErrors[i].Inc()
		}
		st.seriesScraped = len(res.samples)
		up := 0.0
		if res.up {
			up = 1
		}
		w.appendSample(t.Name, "watch_up", now, up)
		// Sorted insertion order keeps first-seen series ordering (and so
		// /series output) identical run to run.
		keys := make([]string, 0, len(res.samples))
		for k := range res.samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			w.appendSample(t.Name, k, now, res.samples[k])
		}
	}
	w.evaluateLocked(now)
}

// appendSample appends one sample, creating the ring buffer on first use.
func (w *Watcher) appendSample(target, key string, at time.Time, v float64) {
	m := w.series[target]
	s := m[key]
	if s == nil {
		s = NewSeries(w.cfg.SeriesCap)
		m[key] = s
	}
	s.Append(at.UnixMilli(), v)
}

// scrapeTarget fetches one target's surfaces into a flat sample map. The
// /metrics scrape decides liveness; /freshness and /gates are additive
// evidence (a 404 — an older daemon — contributes nothing and is fine,
// any other failure only logs).
func (w *Watcher) scrapeTarget(ctx context.Context, t Target) (map[string]float64, error) {
	body, err := w.fetch(ctx, t.URL+"/metrics")
	if err != nil {
		return nil, err
	}
	samples := ParseProm(body)
	if t.hasFreshness() {
		if fr, err := w.fetchFreshness(ctx, t); err != nil {
			w.cfg.Logf("fleetwatch: freshness %s: %v", t.Name, err)
		} else if fr != nil {
			samples["watch_watermark_age_seconds"] = fr.WatermarkAgeSeconds
			samples["watch_freshness_behind"] = float64(fr.Behind)
		}
	}
	if t.Kind == KindRolloutd {
		if flaps, gates, err := w.fetchGateFlaps(ctx, t); err != nil {
			w.cfg.Logf("fleetwatch: gates %s: %v", t.Name, err)
		} else {
			samples["watch_gate_outcome_changes"] = float64(flaps)
			samples["watch_gate_decisions"] = float64(gates)
		}
	}
	return samples, nil
}

// fetch GETs one URL and returns the body (capped at 8 MiB).
func (w *Watcher) fetch(ctx context.Context, url string) (body []byte, err error) {
	err = daemon.Get(ctx, w.cfg.Client, url, func(r io.Reader) error {
		body, err = io.ReadAll(io.LimitReader(r, 8<<20))
		return err
	})
	return body, err
}

// watchFreshness is the slice of a /freshness payload the watcher keeps.
// Both harvestd and harvestagg render these fields at top level.
type watchFreshness struct {
	WatermarkAgeSeconds float64 `json:"watermark_age_seconds"`
	Behind              int64   `json:"behind"`
}

// fetchFreshness reads a harvest surface's watermark view; (nil, nil) on
// 404 (the daemon predates the endpoint).
func (w *Watcher) fetchFreshness(ctx context.Context, t Target) (*watchFreshness, error) {
	var fr watchFreshness
	err := daemon.Get(ctx, w.cfg.Client, t.URL+"/freshness", func(r io.Reader) error {
		return json.NewDecoder(io.LimitReader(r, 8<<20)).Decode(&fr)
	})
	switch {
	case daemon.StatusCode(err) == http.StatusNotFound:
		return nil, nil
	case err != nil:
		return nil, err
	}
	return &fr, nil
}

// fetchGateFlaps reads a rollout controller's decision log and counts
// outcome transitions inside the trailing FlapWindow decisions — the flap
// signal: a healthy gate holds, then promotes monotonically; a gate
// oscillating between outcomes is being whipsawed by noisy estimates.
func (w *Watcher) fetchGateFlaps(ctx context.Context, t Target) (flaps, total int, err error) {
	body, err := w.fetch(ctx, t.URL+"/gates")
	if err != nil {
		return 0, 0, err
	}
	var decisions []struct {
		Outcome string `json:"outcome"`
	}
	if err := json.Unmarshal(body, &decisions); err != nil {
		return 0, 0, fmt.Errorf("decoding /gates: %w", err)
	}
	start := 0
	if len(decisions) > w.cfg.FlapWindow {
		start = len(decisions) - w.cfg.FlapWindow
	}
	for i := start + 1; i < len(decisions); i++ {
		if decisions[i].Outcome != decisions[i-1].Outcome {
			flaps++
		}
	}
	return flaps, len(decisions), nil
}
