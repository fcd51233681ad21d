// Package obs is the repository's unified observability layer: a
// stdlib-only metrics registry with deterministic Prometheus-text
// exposition, a structured JSONL span tracer with a pluggable clock, and a
// pprof/expvar debug server helper.
//
// The paper's pitch is that harvested ⟨x, a, r, p⟩ tuples yield trustworthy
// counterfactual estimates — but trust depends on runtime properties a
// serving stack must be able to see: effective sample size, importance
// weight tails, clip rates, queue pressure, per-backend latency. Every
// long-running component (harvestd, lbd, cached, the netlb proxy) and the
// experiment runner report through this package.
//
// Three design rules, mirrored from the rest of the repository:
//
//   - Deterministic output. WritePrometheus renders metric families sorted
//     by name and series sorted by label value, with # HELP/# TYPE lines,
//     so two renders of the same state are byte-identical — scrape diffs
//     and regression tests stay trivial.
//   - Mergeable state. Histograms are lock-sharded for write concurrency
//     and merge their shards into one snapshot on read, the same
//     fold-per-writer, merge-on-read shape as the estimators' ope.Accum.
//   - Injected clocks. Nothing here reads time.Now directly except the
//     WallClock constructor (enforced by harvestlint's walltime rule), so
//     simulations can drive the tracer from a des.Simulator virtual clock
//     and tests get byte-stable timestamps.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds named metric families and renders them as Prometheus
// text. All methods are safe for concurrent use. Instrument handles
// (Counter, Gauge, Histogram) should be looked up once and cached by the
// caller: the lookup takes the registry lock, the handles themselves are
// lock-free (counters/gauges) or lock-sharded (histograms).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric name: its metadata plus every label combination
// observed so far.
type family struct {
	name, help, typ string
	buckets         []float64 // histogram families only
	series          map[string]*series
}

// series is one (name, labels) combination. Exactly one of the value
// fields is set, matching the family type.
type series struct {
	labelPairs []string // sorted k1, v1, k2, v2, ...
	counter    *Counter
	gauge      *Gauge
	counterFn  func() int64
	gaugeFn    func() float64
	hist       *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the metric to stay monotone; this is not
// checked — the hot path stays a single atomic add).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Counter registers (or looks up) a counter series. Labels are alternating
// key, value strings. Re-registering an existing name with a different
// type or help text panics: metric identity is a program invariant, not a
// runtime condition.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.lookup(name, help, "counter", nil, labels, func(s *series) {
		if s.counter == nil {
			s.counter = &Counter{}
		}
	}).counter
}

// Gauge registers (or looks up) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.lookup(name, help, "gauge", nil, labels, func(s *series) {
		if s.gauge == nil {
			s.gauge = &Gauge{}
		}
	}).gauge
}

// CounterFunc registers a counter series whose value is computed at scrape
// time (for monotone values owned by another subsystem, e.g. cache hit
// totals). fn must be safe to call from the scrape goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...string) {
	r.lookup(name, help, "counter", nil, labels, func(s *series) { s.counterFn = fn })
}

// GaugeFunc registers a gauge series computed at scrape time (queue
// depths, goroutine counts, uptime). fn must be safe to call from the
// scrape goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.lookup(name, help, "gauge", nil, labels, func(s *series) { s.gaugeFn = fn })
}

// Histogram registers (or looks up) a histogram series. Every series of
// one family shares the first registration's bucket layout; passing a
// different layout for an existing family panics.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	return r.lookup(name, help, "histogram", buckets, labels, func(s *series) {
		if s.hist == nil {
			h, err := NewHistogram(buckets)
			if err != nil {
				panic(fmt.Sprintf("obs: histogram %s: %v", name, err))
			}
			s.hist = h
		}
	}).hist
}

// lookup finds or creates the series for (name, labels), enforcing that a
// family's type, help, and bucket layout never change after the first
// registration.
func (r *Registry) lookup(name, help, typ string, buckets []float64, labels []string, bind func(*series)) *series {
	pairs := sortedLabelPairs(labels)
	key := renderLabels(pairs, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		if typ == "histogram" {
			f.buckets = append([]float64(nil), buckets...)
		}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.typ, typ))
	}
	if f.help != help {
		panic(fmt.Sprintf("obs: metric %s help text mismatch", name))
	}
	if typ == "histogram" && !sameBuckets(f.buckets, buckets) {
		panic(fmt.Sprintf("obs: histogram %s bucket layout mismatch", name))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labelPairs: pairs}
		f.series[key] = s
	}
	bind(s)
	return s
}

// sortedLabelPairs validates alternating key/value labels and returns them
// sorted by key. Odd counts and duplicate keys panic: labels are written
// at instrumentation sites, so a bad set is a bug, not input.
func sortedLabelPairs(labels []string) []string {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	n := len(labels) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	out := make([]string, 0, len(labels))
	for i, ix := range idx {
		if i > 0 && labels[2*ix] == out[len(out)-2] {
			panic(fmt.Sprintf("obs: duplicate label key %q", labels[2*ix]))
		}
		out = append(out, labels[2*ix], labels[2*ix+1])
	}
	return out
}

// renderLabels renders sorted pairs as {k="v",...}, appending the optional
// extra pair (histogram "le") last. Empty pairs and extra render as "".
func renderLabels(pairs []string, extra string) string {
	if len(pairs) == 0 && extra == "" {
		return ""
	}
	// strings.Builder writes cannot fail; discards are explicit for errdrop.
	var b strings.Builder
	_ = b.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			_ = b.WriteByte(',')
		}
		_, _ = b.WriteString(pairs[i])
		_, _ = b.WriteString(`="`)
		_, _ = b.WriteString(escapeLabel(pairs[i+1]))
		_ = b.WriteByte('"')
	}
	if extra != "" {
		if len(pairs) > 0 {
			_ = b.WriteByte(',')
		}
		_, _ = b.WriteString(`le="`)
		_, _ = b.WriteString(extra)
		_ = b.WriteByte('"')
	}
	_ = b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes HELP text per the Prometheus text format: backslash
// and newline. (Double quotes are legal in HELP text and stay literal.)
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func sameBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// formatFloat renders a float the way the rest of the exposition does.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// histQuantiles are the quantile pseudo-families every histogram family
// exposes alongside its buckets.
var histQuantiles = []struct {
	suffix string
	q      float64
}{
	{"p50", 0.5},
	{"p90", 0.9},
	{"p99", 0.99},
}

// WritePrometheus renders every family in the Prometheus text format,
// deterministically: families sorted by name, series sorted by label
// string, one # HELP and # TYPE line per family. Scrape-time functions
// (GaugeFunc/CounterFunc) are evaluated during the render.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sers := make([]*series, len(keys))
		for i, k := range keys {
			sers[i] = f.series[k]
		}
		r.mu.Unlock()

		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		snaps := make([]*HistSnapshot, len(sers))
		for si, s := range sers {
			ls := renderLabels(s.labelPairs, "")
			switch {
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, ls, s.counter.Value())
			case s.counterFn != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, ls, s.counterFn())
			case s.gauge != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, ls, formatFloat(s.gauge.Value()))
			case s.gaugeFn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, ls, formatFloat(s.gaugeFn()))
			case s.hist != nil:
				snap := s.hist.Snapshot()
				snaps[si] = &snap
				cum := uint64(0)
				for i, ub := range snap.Buckets {
					cum += snap.Counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						f.name, renderLabels(s.labelPairs, formatFloat(ub)), cum)
				}
				cum += snap.Counts[len(snap.Buckets)]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, renderLabels(s.labelPairs, "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, ls, formatFloat(snap.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, ls, cum)
			}
		}
		// Histogram families additionally expose linearly interpolated
		// quantile gauges derived from the same snapshot the buckets were
		// rendered from, as sibling pseudo-families right after the family
		// (deterministic placement; empty series render NaN).
		if f.typ == "histogram" {
			for _, pq := range histQuantiles {
				fmt.Fprintf(&b, "# HELP %s_%s %s quantile of %s (interpolated)\n",
					f.name, pq.suffix, pq.suffix, f.name)
				fmt.Fprintf(&b, "# TYPE %s_%s gauge\n", f.name, pq.suffix)
				for si, s := range sers {
					if snaps[si] == nil {
						continue
					}
					fmt.Fprintf(&b, "%s_%s%s %s\n", f.name, pq.suffix,
						renderLabels(s.labelPairs, ""), formatFloat(snaps[si].Quantile(pq.q)))
				}
			}
		}
	}
	_, err := w.Write([]byte(b.String()))
	return err
}

// Handler returns an http.Handler serving the registry as /metrics text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// RegisterGoRuntime adds the standard Go runtime gauges every daemon in
// this repository exposes (goroutines, heap, GC).
func RegisterGoRuntime(r *Registry) {
	r.GaugeFunc("go_goroutines", "number of live goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	r.GaugeFunc("go_heap_alloc_bytes", "bytes of allocated heap objects", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	r.CounterFunc("go_total_alloc_bytes", "cumulative bytes allocated on the heap", func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.TotalAlloc)
	})
	r.CounterFunc("go_gc_runs_total", "completed GC cycles", func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.NumGC)
	})
}
