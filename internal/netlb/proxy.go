package netlb

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
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
	ups    []*upstream
	policy core.Policy
	r      *rand.Rand

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

	ln      net.Listener
	connMu  sync.Mutex
	clients map[net.Conn]struct{} // open client connections; nil once closed
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
		requests: make([]*obs.Counter, len(p.ups)),
		errors:   make([]*obs.Counter, len(p.ups)),
		latency:  make([]*obs.Histogram, len(p.ups)),
	}
	for i, u := range p.ups {
		m.requests[i] = r.Counter("netlb_backend_requests_total",
			"requests routed to the backend", "backend", u.addr)
		m.errors[i] = r.Counter("netlb_backend_errors_total",
			"proxy failures and 5xx responses from the backend", "backend", u.addr)
		m.latency[i] = r.Histogram("netlb_backend_latency_seconds",
			"request time through the backend", obs.DefLatencyBuckets(), "backend", u.addr)
		i := i
		r.GaugeFunc("netlb_backend_active_requests",
			"in-flight requests on the backend", func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return float64(p.conns[i])
			}, "backend", u.addr)
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
	p := &Proxy{policy: pol, r: r, conns: make([]int, len(upstreams)), logW: logW}
	for _, addr := range upstreams {
		p.ups = append(p.ups, &upstream{addr: addr})
	}
	return p, nil
}

// Start listens on an ephemeral localhost port and serves until Close, one
// goroutine per client connection.
func (p *Proxy) Start() (net.Addr, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netlb: proxy listen: %w", err)
	}
	p.ln = ln
	p.clients = map[net.Conn]struct{}{}
	go p.serve(ln)
	return ln.Addr(), nil
}

// serve accepts client connections until the listener closes.
func (p *Proxy) serve(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		} else if err != nil {
			time.Sleep(5 * time.Millisecond) // out of file descriptors, say: wait, as net/http does
		} else if p.track(c, true) {
			go p.serveConn(c)
		}
	}
}

// track adds c to the open client connections, or takes it out and closes
// it — as it does with a c added after Close.
func (p *Proxy) track(c net.Conn, add bool) bool {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	if add && p.clients != nil {
		p.clients[c] = struct{}{}
		return true
	}
	delete(p.clients, c)
	_ = c.Close()
	return false
}

// Addr returns the proxy's host:port (after Start).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's base URL (after Start).
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Close shuts down the proxy listener and closes every client connection
// and every pooled upstream connection; an exchange still in flight closes
// its own when it ends.
func (p *Proxy) Close() error {
	var err error
	if p.ln != nil {
		err = p.ln.Close()
		p.connMu.Lock()
		for c := range p.clients {
			_ = c.Close()
		}
		p.clients = nil
		p.connMu.Unlock()
	}
	for _, u := range p.ups {
		u.mu.Lock()
		idle := u.idle
		u.idle, u.closed = nil, true
		u.mu.Unlock()
		for _, c := range idle {
			_ = c.Close()
		}
	}
	return err
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
	if int(a) >= len(p.ups) {
		a = core.Action(len(p.ups) - 1)
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

const (
	exchangeTimeout    = 30 * time.Second // dial to the reply's last byte
	maxIdlePerUpstream = 64
	bodyReuseWindow    = time.Second // see upstream.get
)

// upstream is one backend and its kept-alive connections, last used last.
type upstream struct {
	addr   string
	mu     sync.Mutex
	idle   []*upConn
	closed bool
}

type upConn struct {
	net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	used time.Time // start of its last exchange
}

// get pops the most recently used idle connection, or returns nil. A request
// with a body is never replayed, so with fresh set it takes one only if its
// last exchange began within bodyReuseWindow, well inside common upstream
// keep-alive timeouts, and the caller dials otherwise.
func (u *upstream) get(now time.Time, fresh bool) *upConn {
	u.mu.Lock()
	defer u.mu.Unlock()
	i := len(u.idle) - 1
	if i < 0 || fresh && now.Sub(u.idle[i].used) > bodyReuseWindow {
		return nil
	}
	c := u.idle[i]
	u.idle = u.idle[:i]
	return c
}

// put pools c, or closes it if the pool is full or closed.
func (u *upstream) put(c *upConn) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed || len(u.idle) >= maxIdlePerUpstream {
		_ = c.Close()
		return
	}
	u.idle = append(u.idle, c)
}

// logAccess emits one Nginx-style access-log line:
//
//	remote - - [time] "METHOD path HTTP/1.1" status bytes "-" "ua" rt=0.123 upstream=1 conns=3|5 prop=0.5
//
// The trailing key=value fields mirror how Nginx deployments add
// $request_time / $upstream_addr / custom variables to log_format — the
// paper's point that "existing logging modules already provided what we
// needed, and simply needed to be configured".
func (p *Proxy) logAccess(f *logFields, status int, bytes int64, now time.Time, rt time.Duration, a core.Action, prop float64, conns []int, reqType int) {
	if p.logW == nil {
		return
	}
	if p.numTypes <= 1 {
		reqType = -1
	}
	buf := logBufs.Get().(*[]byte)
	*buf = appendAccessLine((*buf)[:0], now, f, status, bytes, rt, a, prop, conns, reqType)
	p.logMu.Lock()
	_, _ = p.logW.Write(*buf)
	p.logMu.Unlock()
	logBufs.Put(buf)
	p.lastLogNano.Store(now.UnixNano())
	if m := p.metrics; m != nil {
		m.logRecords.Inc()
	}
}

// logBufs recycles access-log line buffers: the line is on the
// client-visible path (the reply's last bytes are flushed after it), so it
// is built without an allocation.
var logBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendAccessLine appends one access-log line, newline included, to b;
// reqType < 0 omits the type= field.
func appendAccessLine(b []byte, now time.Time, f *logFields, status int, bytes int64, rt time.Duration, a core.Action, prop float64, conns []int, reqType int) []byte {
	remote := f.remote
	if remote == "" {
		remote = "-"
	}
	b = append(b, remote...)
	b = append(b, " - - ["...)
	b = now.AppendFormat(b, "02/Jan/2006:15:04:05 -0700")
	b = append(b, `] "`...)
	b = append(b, f.method...)
	b = append(b, ' ')
	b = append(b, f.target...)
	b = append(b, ' ')
	b = append(b, f.proto...)
	b = append(b, `" `...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, bytes, 10)
	b = append(b, ` "-" "`...)
	b = append(b, f.ua...)
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
