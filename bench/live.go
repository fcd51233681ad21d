package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/harvestd"
	"repro/internal/netlb"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rollout"
	"repro/internal/stats"
)

const (
	// Harness cadence of PullAll + Step. One turn costs ≈ 1 ms with 3
	// policies and ≈ 4 ms with 32, so 10 ms keeps every workload under
	// half busy; at 5 ms the wide one overran ticks whenever the machine
	// hiccuped and its p90 swung 12–21 ms run to run.
	cycleEvery  = 10 * time.Millisecond
	tailPoll    = time.Millisecond       // harvestd's follow-mode poll
	hopPoll     = 250 * time.Microsecond // traced pass: fold-watermark poll
	directEvery = 10                     // every 10th request skips the proxy
	spanEvery   = 16                     // traced pass: 1 in 16 requests gets a span
	drainLimit  = 5 * time.Second
)

// stampLog is the access log the proxy writes through: it forwards each
// line to the file harvestd tails and stamps the time the write returned,
// which is when the line became visible to the tail.
type stampLog struct {
	f *os.File

	mu     sync.Mutex
	stamps []time.Time // write time of the k-th 200-status line, k-1 indexed
	other  int         // lines with another status
	bytes  int64
}

var status200 = []byte(`" 200 `)

func (s *stampLog) Write(p []byte) (int, error) {
	n, err := s.f.Write(p)
	now := time.Now()
	s.mu.Lock()
	if bytes.Contains(p, status200) {
		s.stamps = append(s.stamps, now)
	} else {
		s.other++
	}
	s.bytes += int64(n)
	s.mu.Unlock()
	return n, err
}

func (s *stampLog) lines() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stamps)
}

// request is one client request as the client saw it.
type request struct {
	start  time.Time
	lat    time.Duration
	direct bool
	ok     bool
}

// cycle is one harness turn: pull the shard, step the controller.
type cycle struct {
	tick    time.Time // when the ticker fired
	began   time.Time // when the harness got to it
	pulled  time.Time // PullAll returned
	gated   time.Time // Step returned
	n       int64     // GateDecision.Candidate.N: records the decision covers
	pullErr bool
	stepErr bool
	fetch   time.Duration // traced window: the controller's three fetches, repeated alone
}

// foldMark is one traced-pass observation of harvestd's fold watermark.
type foldMark struct {
	at  time.Time
	seq int64
}

// loop is the live topology, all in this process: bare upstreams ← proxy →
// stamped log → harvestd (tail) → aggregator → rollout controller, driven
// by one closed-loop client and a 10 ms pull+step cycle.
type loop struct {
	b        *bench
	upstream []*http.Server
	upURL    []string
	log      *stampLog
	proxy    *netlb.Proxy
	d        *harvestd.Daemon
	agg      *fleet.Aggregator
	ctl      *rollout.Controller
	harvest  *rollout.HTTPHarvest

	tracing    atomic.Bool   // spans on (traced window)
	stop       chan struct{} // closed to stop the client
	clientDone chan struct{} // closed when the client has returned
	wg         sync.WaitGroup

	// each written by one goroutine, read after wg.Wait
	requests []request
	cycles   []cycle
	marks    []foldMark
}

var upstreamBody = bytes.Repeat([]byte("x"), 64)

func (b *bench) startLoop() (*loop, error) {
	l := &loop{b: b, stop: make(chan struct{}), clientDone: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			l.close()
		}
	}()
	var addrs []string
	for i := 0; i < b.wl.upstreams; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write(upstreamBody) // client sees a short body as a failed request
		})}
		go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on Close
		l.upstream = append(l.upstream, srv)
		addrs = append(addrs, ln.Addr().String())
		l.upURL = append(l.upURL, "http://"+ln.Addr().String()+"/r")
	}

	f, err := os.Create(filepath.Join(b.dir, "access.log"))
	if err != nil {
		return nil, err
	}
	l.log = &stampLog{f: f}
	l.proxy, err = netlb.NewProxy(addrs, policy.UniformRandom{}, stats.Substream(b.seed, 2), l.log)
	if err != nil {
		return nil, err
	}
	if _, err := l.proxy.Start(); err != nil {
		return nil, err
	}

	if l.d, err = b.newDaemon(2, ""); err != nil {
		return nil, err
	}
	l.d.AddSource(&harvestd.NginxSource{Path: f.Name(), Follow: true, Poll: tailPoll})
	if err := l.d.Start(context.Background()); err != nil {
		return nil, err
	}
	l.agg, err = fleet.New(fleet.Config{
		Shards:       []fleet.Shard{{Name: "shard-0", URL: l.d.URL()}},
		PullInterval: time.Hour, // only the harness cycle pulls
		Addr:         "127.0.0.1:0",
	})
	if err != nil {
		return nil, err
	}
	if err := l.agg.Start(context.Background()); err != nil {
		return nil, err
	}
	l.harvest = &rollout.HTTPHarvest{BaseURL: l.agg.URL()}
	// Observe-only, and a sample floor no run reaches: the controller holds
	// in shadow while evaluating every check on every step.
	l.ctl, err = rollout.New(rollout.Config{
		Candidate:       candidateName,
		Baseline:        baselineName,
		Harvest:         l.harvest,
		MinStageSamples: 1 << 40,
		TermHi:          1,
	})
	if err != nil {
		return nil, err
	}

	l.wg.Add(1)
	go l.client()
	go l.cycleLoop()
	ok = true
	return l, nil
}

// client is the closed-loop load: one caller that waits for each reply,
// over one connection to the proxy and one to upstream 0.
func (l *loop) client() {
	defer close(l.clientDone)
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	proxyURL := l.proxy.URL() + "/r"
	for i := 1; ; i++ {
		select {
		case <-l.stop:
			return
		default:
		}
		r := request{direct: i%directEvery == 0}
		url := proxyURL
		if r.direct {
			url = l.upURL[0]
		}
		var sp *obs.Span
		if !r.direct && i%spanEvery == 0 && l.tracing.Load() {
			sp = l.b.tr.Start("netlb.request", l.b.liveSpan, nil)
		}
		r.start = time.Now()
		body, err := httpGet(c, url)
		r.lat = time.Since(r.start)
		sp.End()
		r.ok = err == nil && len(body) == len(upstreamBody)
		l.requests = append(l.requests, r)
	}
}

// cycleLoop pulls and steps every cycleEvery. Once the client has returned
// it keeps going until a decision covers every line the proxy owes the log
// (the proxy logs after it has answered, so the last line can trail the
// last reply), or the drain limit passes.
func (l *loop) cycleLoop() {
	defer l.wg.Done()
	ctx := context.Background()
	t := time.NewTicker(cycleEvery)
	defer t.Stop()
	var drainBy time.Time
	var owed int64
	for tick := range t.C {
		if drainBy.IsZero() {
			select {
			case <-l.clientDone:
				drainBy = time.Now().Add(drainLimit)
				for _, r := range l.requests {
					if r.ok && !r.direct {
						owed++
					}
				}
			default:
			}
		}
		tr := l.b.tr
		if !l.tracing.Load() {
			tr = nil
		}
		c := cycle{tick: tick, began: time.Now()}
		sp := tr.Start("cycle", l.b.liveSpan, nil)
		pull := tr.Start("fleet.PullAll", sp, nil)
		c.pullErr = l.agg.PullAll(ctx) != nil
		pull.End()
		c.pulled = time.Now()
		step := tr.Start("rollout.Step", sp, nil)
		dec, err := l.ctl.Step(ctx)
		step.End()
		c.gated = time.Now()
		sp.End()
		c.stepErr = err != nil
		c.n = dec.Candidate.N
		if tr != nil {
			// What Step spends fetching, measured where Step runs: on a warm
			// loop. Alone on an idle topology the same three GETs take
			// several times longer (wake-ups), which says nothing about Step.
			fsp := tr.Start("rollout.fetch", l.b.liveSpan, nil)
			c.stepErr = l.fetchOnce(ctx) != nil || c.stepErr
			fsp.End()
			c.fetch = time.Since(c.gated)
		}
		l.cycles = append(l.cycles, c)
		if !drainBy.IsZero() && (c.n >= owed || time.Now().After(drainBy)) {
			return
		}
	}
}

// fetchOnce issues the three reads one Controller.Step makes.
func (l *loop) fetchOnce(ctx context.Context) error {
	if _, err := l.harvest.Estimates(ctx); err != nil {
		return err
	}
	if _, err := l.harvest.Diagnostics(ctx); err != nil {
		return err
	}
	_, err := l.harvest.Freshness(ctx)
	return err
}

// watchFolds polls harvestd's fold watermark every 250 µs while the traced
// window runs; the access-log source numbers lines from 1, so the
// watermark is the count of lines folded.
func (l *loop) watchFolds(until <-chan struct{}) {
	defer l.wg.Done()
	t := time.NewTicker(hopPoll)
	defer t.Stop()
	for {
		select {
		case <-until:
			return
		case now := <-t.C:
			l.marks = append(l.marks, foldMark{at: now, seq: l.d.FreshnessNow().WatermarkSeq})
		}
	}
}

// finish stops the load, drains the loop, and checks the run stayed
// inside the benchmark's assumptions. Call once, before reading results.
func (l *loop) finish() error {
	close(l.stop)
	l.wg.Wait() // the cycle loop outlives the client: it drains what the client left
	if st := l.ctl.Stage(); st != rollout.StageShadow || len(l.ctl.Transitions()) != 0 {
		return fmt.Errorf("%s: controller left shadow (stage %s)", l.b.wl.Name, st)
	}
	lines := int64(l.log.lines())
	if len(l.cycles) == 0 || l.cycles[len(l.cycles)-1].n < lines {
		return fmt.Errorf("%s: %d lines written but the last decision covers fewer", l.b.wl.Name, lines)
	}
	// Oracle: the fleet's merged count equals the 200-status lines written.
	if err := l.agg.PullAll(context.Background()); err != nil {
		return err
	}
	for _, pe := range l.agg.Estimates(0.05) {
		if pe.N != lines {
			return fmt.Errorf("%s: oracle: merged n=%d for %s, %d lines with status 200 written", l.b.wl.Name, pe.N, pe.Policy, lines)
		}
	}
	return nil
}

func (l *loop) close() {
	ctx := context.Background()
	if l.agg != nil {
		_ = l.agg.Shutdown(ctx)
	}
	if l.d != nil {
		_ = l.d.Shutdown(ctx)
	}
	if l.proxy != nil {
		_ = l.proxy.Close()
	}
	for _, srv := range l.upstream {
		_ = srv.Close()
	}
	if l.log != nil {
		_ = l.log.f.Close()
	}
}

// windowStats is what one measurement window of the live phase holds.
type windowStats struct {
	decisionMS []float64 // per line written in the window
	proxiedUS  []float64
	directUS   []float64
	requests   int // attempted
	failed     int
	dur        time.Duration
	cycles     []cycle
	// per-line hop times (traced window only), same lines as decisionMS
	loggedToFoldedMS, foldedToPulledMS, pulledToGatedMS []float64
}

// window extracts [from, to) from the finished run's records. A line's
// decision latency is the return time of the first Step whose decision
// covers it minus the line's write time.
func (l *loop) window(from, to time.Time) *windowStats {
	w := &windowStats{dur: to.Sub(from)}
	in := func(t time.Time) bool { return !t.Before(from) && t.Before(to) }
	for _, r := range l.requests {
		if !in(r.start) {
			continue
		}
		w.requests++
		switch {
		case !r.ok:
			w.failed++
		case r.direct:
			w.directUS = append(w.directUS, us(r.lat))
		default:
			w.proxiedUS = append(w.proxiedUS, us(r.lat))
		}
	}
	for _, c := range l.cycles {
		if in(c.tick) {
			w.cycles = append(w.cycles, c)
		}
	}
	ci, mi := 0, 0
	for k, stamp := range l.log.stamps { // line k+1
		for ci < len(l.cycles) && (l.cycles[ci].n <= int64(k) || l.cycles[ci].stepErr) {
			ci++
		}
		if !in(stamp) {
			continue
		}
		if ci == len(l.cycles) {
			break // finish() already failed the run for uncovered lines
		}
		c := l.cycles[ci]
		w.decisionMS = append(w.decisionMS, ms(c.gated.Sub(stamp)))
		if len(l.marks) == 0 {
			continue
		}
		for mi < len(l.marks) && l.marks[mi].seq <= int64(k) {
			mi++
		}
		folded := c.pulled // watermark poll ended before this line folded: bound it by the pull that saw it
		if mi < len(l.marks) && l.marks[mi].at.Before(c.pulled) {
			folded = l.marks[mi].at
		}
		w.loggedToFoldedMS = append(w.loggedToFoldedMS, ms(folded.Sub(stamp)))
		w.foldedToPulledMS = append(w.foldedToPulledMS, ms(c.pulled.Sub(folded)))
		w.pulledToGatedMS = append(w.pulledToGatedMS, ms(c.gated.Sub(c.pulled)))
	}
	return w
}

// liveWindows is how many equal windows the plain live phase is cut into;
// each gated metric is the median window's value, so an interference
// episode of a second or two spoils a minority of them.
const liveWindows = 7

// live is the second phase of a plain run: warm up, then the windows.
func (b *bench) live(budget time.Duration) error {
	warm := budget / 8
	win := (budget - warm) / liveWindows
	l, err := b.startLoop()
	if err != nil {
		return err
	}
	defer l.close()
	t0 := time.Now()
	time.Sleep(warm + liveWindows*win)
	if err := l.finish(); err != nil {
		return err
	}
	var p50, p90, proxied []float64
	for i := 0; i < liveWindows; i++ {
		from := t0.Add(warm + time.Duration(i)*win)
		w := l.window(from, from.Add(win))
		b.countLive(w)
		if len(w.decisionMS) == 0 || len(w.proxiedUS) == 0 {
			continue // a stall longer than the window: nothing was served in it
		}
		p50 = append(p50, quantile(w.decisionMS, 0.5))
		p90 = append(p90, quantile(w.decisionMS, 0.9))
		proxied = append(proxied, median(w.proxiedUS))
	}
	b.m["decision_latency_p50_ms"] = median(p50)
	b.m["decision_latency_p90_ms"] = median(p90)
	b.m["proxy_request_p50_us"] = median(proxied)
	return nil
}

// countLive books a window into attempted/failed: requests that errored or
// came back short, and cycles whose pull or step errored.
func (b *bench) countLive(w *windowStats) {
	b.attempted += int64(w.requests + len(w.cycles))
	b.fail(int64(w.failed), "client requests failed")
	var bad int64
	for _, c := range w.cycles {
		if c.pullErr || c.stepErr {
			bad++
		}
	}
	b.fail(bad, "pull+step cycles errored")
}

// liveTraced is the live phase of the traced pass: one plain window, then
// one with spans and the fold-watermark poll on, plus the probes that need
// the running topology.
func (b *bench) liveTraced(budget time.Duration) error {
	warm := budget / 8
	win := (budget - warm) / 2
	// Parent of the traced window's spans; opened before the loop's
	// goroutines exist, so they can read it without synchronisation.
	b.liveSpan = b.tr.Start("live", b.root, nil)
	defer b.liveSpan.End()
	l, err := b.startLoop()
	if err != nil {
		return err
	}
	defer l.close()
	time.Sleep(warm)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plainFrom := time.Now()
	time.Sleep(win)
	runtime.ReadMemStats(&ms1)
	plainTo := time.Now()

	watchDone := make(chan struct{})
	l.wg.Add(1)
	go l.watchFolds(watchDone)
	l.tracing.Store(true)
	tracedFrom := time.Now()
	time.Sleep(win)
	tracedTo := time.Now()
	l.tracing.Store(false)
	close(watchDone)
	if err := l.finish(); err != nil {
		return err
	}

	plain := l.window(plainFrom, plainTo)
	traced := l.window(tracedFrom, tracedTo)
	b.countLive(plain)
	b.countLive(traced)
	m := b.m
	var pullUS, stepUS, lateMS []float64
	var pullErrs, stepErrs int
	for _, c := range plain.cycles {
		pullUS = append(pullUS, us(c.pulled.Sub(c.began)))
		stepUS = append(stepUS, us(c.gated.Sub(c.pulled)))
		lateMS = append(lateMS, ms(c.began.Sub(c.tick)))
		if c.pullErr {
			pullErrs++
		}
		if c.stepErr {
			stepErrs++
		}
	}
	m["fleet.pull_p50_us"] = quantile(pullUS, 0.5)
	m["fleet.pull_p99_us"] = quantile(pullUS, 0.99)
	m["fleet.pull_errors"] = float64(pullErrs)
	m["rollout.step_p50_us"] = quantile(stepUS, 0.5)
	m["rollout.step_p99_us"] = quantile(stepUS, 0.99)
	m["rollout.decisions"] = float64(len(plain.cycles) - stepErrs)
	m["rollout.step_errors"] = float64(stepErrs)
	m["loop.cycle_late_p99_ms"] = quantile(lateMS, 0.99)
	m["loop.decision_latency_p99_ms"] = quantile(plain.decisionMS, 0.99)
	m["loop.request_fail_ratio"] = float64(plain.failed) / float64(plain.requests)

	direct, proxied := median(plain.directUS), median(plain.proxiedUS)
	m["netlb.direct_p50_us"] = direct
	m["netlb.added_p50_us"] = proxied - direct
	m["netlb.request_p99_us"] = quantile(plain.proxiedUS, 0.99)
	m["netlb.requests_per_s"] = float64(len(plain.proxiedUS)+len(plain.directUS)) / plain.dur.Seconds()
	// Process-wide allocation count over the window, so harvestd's parse of
	// each line and the cycle's pulls are in it; it repeats, which is what
	// a count needs.
	m["netlb.allocs_per_request"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(plain.proxiedUS))
	l.log.mu.Lock()
	m["netlb.log_bytes_per_request"] = float64(l.log.bytes) / float64(len(l.log.stamps)+l.log.other)
	l.log.mu.Unlock()

	m["hop.logged_to_folded_mean_ms"] = mean(traced.loggedToFoldedMS)
	m["hop.folded_to_pulled_mean_ms"] = mean(traced.foldedToPulledMS)
	m["hop.pulled_to_gated_mean_ms"] = mean(traced.pulledToGatedMS)
	m["loop.decision_latency_mean_ms"] = mean(traced.decisionMS)
	m["bench.trace_overhead_ratio"] = quantile(traced.decisionMS, 0.5) / quantile(plain.decisionMS, 0.5)
	var fetchUS, tracedStepUS []float64
	for _, c := range traced.cycles {
		fetchUS = append(fetchUS, us(c.fetch))
		tracedStepUS = append(tracedStepUS, us(c.gated.Sub(c.pulled)))
	}
	m["rollout.fetch_us"] = median(fetchUS)
	m["rollout.gate_self_us"] = median(tracedStepUS) - median(fetchUS)

	// The aggregator's merge alone: an in-process call, so an idle machine
	// does not distort it the way it does an HTTP round trip.
	m["fleet.view_us"], err = medianCall(func() error {
		sinkFloat += float64(len(l.agg.Estimates(0.05)))
		return nil
	})
	return err
}
