package netlb

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lbsim"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Proxy is an HTTP reverse-proxy load balancer with a pluggable routing
// policy. Like Nginx, it knows each upstream's active connection count
// because every request flows through it; that count vector is the routing
// context. Each access is logged in an Nginx-combined-style line extended
// with the upstream choice, per-upstream connection counts, the decision
// propensity, and the request time — everything the harvester needs.
type Proxy struct {
	backends []string // upstream host:port
	policy   core.Policy
	r        *rand.Rand

	mu    sync.Mutex
	conns []int // active requests per upstream (LB's own view)

	logMu sync.Mutex
	logW  io.Writer
	// lastLogNano is the wall time of the last access-log write, for the
	// log-freshness gauge (0: never). The access log is the head of the
	// harvest pipeline, so a watcher comparing it against harvestd's fold
	// watermark can tell "no traffic" apart from "pipeline stuck".
	lastLogNano atomic.Int64

	health   *HealthChecker
	numTypes int
	metrics  *proxyMetrics

	client *http.Client
	ln     net.Listener
	srv    *http.Server
}

// proxyMetrics caches per-backend instrument handles: the registry lookup
// locks, so handles are resolved once in SetMetrics and indexed by the
// routing action on the hot path.
type proxyMetrics struct {
	requests   []*obs.Counter
	errors     []*obs.Counter
	latency    []*obs.Histogram
	logRecords *obs.Counter
}

// SetMetrics registers per-backend instruments on the registry and starts
// recording: request and error counts, a request latency histogram, and a
// scrape-time active-request gauge, all labelled by backend address. Call
// before Start.
func (p *Proxy) SetMetrics(r *obs.Registry) {
	m := &proxyMetrics{
		requests: make([]*obs.Counter, len(p.backends)),
		errors:   make([]*obs.Counter, len(p.backends)),
		latency:  make([]*obs.Histogram, len(p.backends)),
	}
	for i, addr := range p.backends {
		m.requests[i] = r.Counter("netlb_backend_requests_total",
			"requests routed to the backend", "backend", addr)
		m.errors[i] = r.Counter("netlb_backend_errors_total",
			"proxy failures and 5xx responses from the backend", "backend", addr)
		m.latency[i] = r.Histogram("netlb_backend_latency_seconds",
			"request time through the backend", obs.DefLatencyBuckets(), "backend", addr)
		i := i
		r.GaugeFunc("netlb_backend_active_requests",
			"in-flight requests on the backend", func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return float64(p.conns[i])
			}, "backend", addr)
	}
	m.logRecords = r.Counter("netlb_log_records_total",
		"access-log lines written for the harvester")
	r.GaugeFunc("netlb_log_last_write_age_seconds",
		"seconds since the last access-log write (-1 never)", func() float64 {
			nano := p.lastLogNano.Load()
			if nano == 0 {
				return -1
			}
			return time.Since(time.Unix(0, nano)).Seconds()
		})
	p.metrics = m
}

// observe records one completed request against the chosen backend.
func (p *Proxy) observe(a core.Action, status int, rt time.Duration) {
	m := p.metrics
	if m == nil || int(a) >= len(m.requests) {
		return
	}
	m.requests[a].Inc()
	if status >= 500 {
		m.errors[a].Inc()
	}
	m.latency[a].Observe(rt.Seconds())
}

// SetPolicy swaps the routing policy. Safe while serving: decisions read
// the policy under the same lock, so every request is routed and logged
// entirely by one policy or the other, never a mix. A rollout controller
// uses this to lock in a fully promoted candidate (the epsilon ramp itself
// goes through a policy.DynamicBlend share, not a policy swap).
func (p *Proxy) SetPolicy(pol core.Policy) error {
	if pol == nil {
		return fmt.Errorf("netlb: nil policy")
	}
	p.mu.Lock()
	p.policy = pol
	p.mu.Unlock()
	return nil
}

// SetNumTypes enables typed routing contexts: requests with paths of the
// form /type/<t>/... are routed with the type one-hot in the context (and
// logged), so contextual policies can specialize per request class. Call
// before Start.
func (p *Proxy) SetNumTypes(n int) { p.numTypes = n }

// SetHealthChecker wires a health view into routing: the proxy masks down
// upstreams and renormalizes the policy's distribution over the healthy
// set, logging the renormalized propensity. Call before Start.
func (p *Proxy) SetHealthChecker(h *HealthChecker) { p.health = h }

// NewProxy builds a proxy over the given upstream addresses. logW receives
// access-log lines (may be nil to disable logging). The rand source drives
// stochastic policies.
func NewProxy(upstreams []string, pol core.Policy, r *rand.Rand, logW io.Writer) (*Proxy, error) {
	if len(upstreams) < 2 {
		return nil, fmt.Errorf("netlb: need at least 2 upstreams, got %d", len(upstreams))
	}
	if pol == nil {
		return nil, fmt.Errorf("netlb: nil policy")
	}
	if r == nil {
		r = stats.NewRand(0)
	}
	return &Proxy{
		backends: append([]string(nil), upstreams...),
		policy:   pol,
		r:        r,
		conns:    make([]int, len(upstreams)),
		logW:     logW,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 64,
			},
		},
	}, nil
}

// Start listens on an ephemeral localhost port and serves until Close.
func (p *Proxy) Start() (net.Addr, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netlb: proxy listen: %w", err)
	}
	p.ln = ln
	p.srv = &http.Server{Handler: p}
	go func() { _ = p.srv.Serve(ln) }()
	return ln.Addr(), nil
}

// Addr returns the proxy's host:port (after Start).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's base URL (after Start).
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Close shuts down the proxy listener.
func (p *Proxy) Close() error {
	if p.srv == nil {
		return nil
	}
	return p.srv.Close()
}

// route makes one routing decision under the lock: snapshot the context,
// pick an action (masked to healthy upstreams when a health checker is
// wired), record its propensity, and bump the chosen counter.
func (p *Proxy) route(reqType int) (a core.Action, propensity float64, snapshot []int) {
	var healthy []bool
	if p.health != nil {
		healthy = p.health.Healthy()
	}
	numTypes := p.numTypes
	if numTypes <= 1 || reqType < 0 {
		numTypes, reqType = 1, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	snapshot = append([]int(nil), p.conns...)
	ctx := lbsim.BuildContext(snapshot, reqType, numTypes)
	if sp, ok := p.policy.(core.StochasticPolicy); ok {
		dist := sp.Distribution(&ctx)
		dist = maskDistribution(dist, healthy)
		i := stats.Categorical(p.r, dist)
		if i < 0 {
			i = 0
		}
		a, propensity = core.Action(i), dist[i]
	} else {
		a, propensity = p.policy.Act(&ctx), 1
		if healthy != nil && int(a) < len(healthy) && !healthy[a] {
			for s, up := range healthy {
				if up {
					a = core.Action(s)
					break
				}
			}
		}
	}
	if int(a) >= len(p.backends) {
		a = core.Action(len(p.backends) - 1)
	}
	p.conns[a]++
	return a, propensity, snapshot
}

// maskDistribution zeroes probabilities of down upstreams and renormalizes.
// If the mask empties the policy's support but some upstreams are healthy
// (e.g. a point-mass policy whose target is down), it falls back to uniform
// over the healthy set; if every upstream is down, the original
// distribution is returned — failing over to nothing helps nobody.
func maskDistribution(dist []float64, healthy []bool) []float64 {
	if healthy == nil {
		return dist
	}
	masked := make([]float64, len(dist))
	total := 0.0
	nHealthy := 0
	for i, p := range dist {
		if i < len(healthy) && healthy[i] {
			masked[i] = p
			total += p
			nHealthy++
		}
	}
	if nHealthy == 0 {
		return dist
	}
	if total <= 0 {
		for i := range masked {
			if i < len(healthy) && healthy[i] {
				masked[i] = 1 / float64(nHealthy)
			}
		}
		return masked
	}
	for i := range masked {
		masked[i] /= total
	}
	return masked
}

func (p *Proxy) release(a core.Action) {
	p.mu.Lock()
	p.conns[a]--
	p.mu.Unlock()
}

// ServeHTTP implements http.Handler: route, proxy, log.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqType := -1
	if p.numTypes > 1 {
		reqType = TypeFromPath(r.URL.Path, p.numTypes)
	}
	a, prop, snapshot := p.route(reqType)
	defer p.release(a)
	start := time.Now()

	outURL := "http://" + p.backends[a] + r.URL.Path
	if r.URL.RawQuery != "" {
		outURL += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, outURL, r.Body)
	if err != nil {
		http.Error(w, "bad gateway: "+err.Error(), http.StatusBadGateway)
		p.observe(a, http.StatusBadGateway, time.Since(start))
		p.logAccess(r, http.StatusBadGateway, 0, time.Since(start), a, prop, snapshot, reqType)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		http.Error(w, "bad gateway: "+err.Error(), http.StatusBadGateway)
		p.observe(a, http.StatusBadGateway, time.Since(start))
		p.logAccess(r, http.StatusBadGateway, 0, time.Since(start), a, prop, snapshot, reqType)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	n, _ := io.Copy(w, resp.Body)
	p.observe(a, resp.StatusCode, time.Since(start))
	p.logAccess(r, resp.StatusCode, n, time.Since(start), a, prop, snapshot, reqType)
}

// logAccess emits one Nginx-style access-log line:
//
//	remote - - [time] "METHOD path HTTP/1.1" status bytes "-" "ua" rt=0.123 upstream=1 conns=3|5 prop=0.5
//
// The trailing key=value fields mirror how Nginx deployments add
// $request_time / $upstream_addr / custom variables to log_format — the
// paper's point that "existing logging modules already provided what we
// needed, and simply needed to be configured".
func (p *Proxy) logAccess(r *http.Request, status int, bytes int64, rt time.Duration, a core.Action, prop float64, conns []int, reqType int) {
	if p.logW == nil {
		return
	}
	if p.numTypes <= 1 {
		reqType = -1
	}
	buf := logBufs.Get().(*[]byte)
	*buf = appendAccessLine((*buf)[:0], time.Now(), r, status, bytes, rt, a, prop, conns, reqType)
	p.logMu.Lock()
	_, _ = p.logW.Write(*buf)
	p.logMu.Unlock()
	logBufs.Put(buf)
	p.lastLogNano.Store(time.Now().UnixNano())
	if m := p.metrics; m != nil {
		m.logRecords.Inc()
	}
}

// logBufs recycles access-log line buffers: the line is on the
// client-visible path (the reply is flushed after the handler returns), so
// it is built without an allocation per field.
var logBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendAccessLine appends one access-log line, newline included, to b;
// reqType < 0 omits the type= field.
func appendAccessLine(b []byte, now time.Time, r *http.Request, status int, bytes int64, rt time.Duration, a core.Action, prop float64, conns []int, reqType int) []byte {
	remote := r.RemoteAddr
	if remote == "" {
		remote = "-"
	}
	b = append(b, remote...)
	b = append(b, " - - ["...)
	b = now.AppendFormat(b, "02/Jan/2006:15:04:05 -0700")
	b = append(b, `] "`...)
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.URL.RequestURI()...)
	b = append(b, ' ')
	b = append(b, r.Proto...)
	b = append(b, `" `...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, bytes, 10)
	b = append(b, ` "-" "`...)
	b = append(b, r.UserAgent()...)
	b = append(b, `" rt=`...)
	b = strconv.AppendFloat(b, rt.Seconds(), 'f', 6, 64)
	b = append(b, " upstream="...)
	b = strconv.AppendInt(b, int64(a), 10)
	b = append(b, " conns="...)
	for i, c := range conns {
		if i > 0 {
			b = append(b, '|')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	b = append(b, " prop="...)
	b = strconv.AppendFloat(b, prop, 'f', 6, 64)
	if reqType >= 0 {
		b = append(b, " type="...)
		b = strconv.AppendInt(b, int64(reqType), 10)
	}
	return append(b, '\n')
}

// Conns returns a snapshot of the per-upstream active request counts.
func (p *Proxy) Conns() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.conns...)
}
