package harvestd

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/daemon"
	"repro/internal/ope"
)

// handler builds the daemon's stdlib-only HTTP API:
//
//	GET  /healthz    liveness + uptime
//	GET  /estimates  per-policy IPS/clipped/SNIPS estimates with intervals
//	                 (?policy=name filters, ?delta=0.01 overrides confidence)
//	GET  /evidence   ?policy=a,b[&delta=]: what one gate step reads, from
//	                 one snapshot of the named policies — their estimate
//	                 and diagnostics rows (both from the same merged Accum),
//	                 the fold watermark and a folded-count stamp, watermark
//	                 read before the accumulators (see Evidence); 400 without
//	                 policy=, 404 naming an unknown policy
//	GET  /metrics    Prometheus text (obs registry, deterministic order):
//	                 ingest counters, queue depth, per-policy estimates and
//	                 estimator-health gauges, Go runtime stats
//	GET  /diagnostics estimator-health JSON: per-policy ESS, weight tails,
//	                 clip and propensity-floor fractions
//	GET  /snapshot   this shard's complete estimator state on the
//	                 federation wire (see StateSnapshot), for harvestagg
//	GET  /freshness  pipeline watermarks: per-source ingest/fold sequence
//	                 high-water marks, queue backlog, ingest→fold lag
//	                 quantiles over batches — one sample per binrec segment
//	                 or access-log read, not per record (see
//	                 FreshnessReport) — for harvestagg and fleetwatch
//	POST /ingest     push raw log data (?format=nginx|bin), for smoke tests
//	                 and push-based producers; bin takes the binrec binary
//	                 stream; the reply's counts are exact and given once
//	                 every record is folded
func (d *Daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", d.handleHealthz)
	mux.HandleFunc("/estimates", d.handleEstimates)
	mux.HandleFunc("/evidence", d.handleEvidence)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/diagnostics", d.handleDiagnostics)
	mux.HandleFunc("/snapshot", d.handleSnapshot)
	mux.HandleFunc("/freshness", d.handleFreshness)
	mux.HandleFunc("/ingest", d.handleIngest)
	return mux
}

// handleSnapshot serves the shard's estimator state to the aggregation
// tier. Encoding failures (non-finite accumulator state) are a 500: better
// for the aggregator to keep the shard's previous snapshot than to merge a
// poisoned one.
func (d *Daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sp := d.cfg.Tracer.Start("snapshot", d.root, nil)
	defer sp.End()
	snap := d.StateSnapshot()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, &snap); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

// handleFreshness serves the shard's pipeline watermarks (FreshnessReport)
// to the aggregation tier and the fleet watcher.
func (d *Daemon) handleFreshness(w http.ResponseWriter, r *http.Request) {
	sp := d.cfg.Tracer.Start("freshness", d.root, nil)
	defer sp.End()
	daemon.WriteJSON(w, d.FreshnessNow())
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	uptime := d.cfg.Clock.Now().Sub(d.start)
	fmt.Fprintf(w, "ok uptime=%s\n", uptime.Round(time.Millisecond))
}

func (d *Daemon) handleEstimates(w http.ResponseWriter, r *http.Request) {
	sp := d.cfg.Tracer.Start("estimate", d.root, nil)
	defer sp.End()
	ServeEstimates(w, r, d.cfg.Delta, func() StateSnapshot { return d.snapshot(nil) })
}

func (d *Daemon) handleEvidence(w http.ResponseWriter, r *http.Request) {
	sp := d.cfg.Tracer.Start("evidence", d.root, nil)
	defer sp.End()
	ServeEvidence(w, r, d.cfg.Delta, d.Evidence)
}

// handleIngest accepts log data in the body and pushes it through the
// regular ingestion pipeline. Malformed lines are counted, not fatal — a
// live endpoint must not die because one producer hiccupped. A body goes
// through a source's read loop, tolerant and typed by Config.NumTypes as
// the sources are, feeding the guarded push entry instead of a source's
// sink: the body is queued raw, the workers parse it, and the reply is the
// sum of what they found in each batch, given once the last batch is home —
// so a 200 also says folded, and its counts are the ones /metrics moved by.
func (d *Daemon) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "nginx"
	}
	if format != "nginx" && format != "bin" {
		http.Error(w, fmt.Sprintf("unknown format %q", format), http.StatusBadRequest)
		return
	}
	sp := d.cfg.Tracer.Start("ingest/http", d.root, map[string]any{"format": format})
	defer sp.End()
	var total tally
	defer func() {
		sp.SetAttr("lines", total.lines)
		sp.SetAttr("ingested", total.ingested)
	}()
	var err error
	if ctx := r.Context(); format == "nginx" {
		total, err = readNginx(ctx, r.Body, d.cfg.NumTypes, false, d.push)
	} else {
		total, err = readBin(ctx, r.Body, d.push)
		if err != nil && err != ctx.Err() && !errors.Is(err, errRefused) {
			d.ctr.parseErrors.Add(1) // machine-written: the body ends at its first fault, counted once
		}
	}
	// 503 says the daemon refused a batch; whatever else ends the pass early
	// is the body's fault.
	switch {
	case err == nil:
		daemon.WriteJSON(w, map[string]int64{
			"lines": total.lines, "ingested": total.ingested,
			"rejected": total.rejected, "parse_errors": total.parseErrors,
		})
	case errors.Is(err, errRefused):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// handleMetrics serves the obs registry as Prometheus text. Static series
// (counters, queue gauges, Go runtime) are registered once in initMetrics
// and read through scrape-time functions; the watermark and per-policy
// series are refreshed here (updateMetrics). The registry renders families
// and series in sorted order, so two scrapes of the same state are
// byte-identical — the fix for the map-iteration nondeterminism the
// hand-rolled renderer had.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	d.updateMetrics()
	d.obsReg.Handler().ServeHTTP(w, r)
}

// DiagnosticsReport is the /diagnostics payload: the estimator-health view
// of every policy plus the pipeline settings that shape it.
type DiagnosticsReport struct {
	UptimeSeconds   float64                 `json:"uptime_seconds"`
	Clip            float64                 `json:"clip"`
	PropensityFloor float64                 `json:"propensity_floor"`
	Delta           float64                 `json:"delta"`
	QueueDepth      int                     `json:"queue_depth"`
	QueueCapacity   int                     `json:"queue_capacity"`
	Workers         int                     `json:"workers"`
	EvalPanics      int64                   `json:"eval_panics"`
	Policies        []ope.PolicyDiagnostics `json:"policies"`
}

// handleDiagnostics reports per-policy estimator health as JSON: effective
// sample size, importance-weight tails, clip and propensity-floor
// fractions — the §4 "estimator error" warning signs, computed from the
// same running sums as the estimates so the two views cannot diverge.
func (d *Daemon) handleDiagnostics(w http.ResponseWriter, r *http.Request) {
	sp := d.cfg.Tracer.Start("diagnostics", d.root, nil)
	defer sp.End()
	snap := d.snapshot(nil)
	daemon.WriteJSON(w, DiagnosticsReport{
		UptimeSeconds:   d.cfg.Clock.Now().Sub(d.start).Seconds(),
		Clip:            snap.Clip,
		PropensityFloor: snap.Floor,
		Delta:           d.cfg.Delta,
		QueueDepth:      len(d.queue),
		QueueCapacity:   cap(d.queue),
		Workers:         d.cfg.Workers,
		EvalPanics:      snap.EvalPanics,
		Policies:        snap.Diagnostics(),
	})
}
