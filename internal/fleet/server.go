package fleet

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/daemon"
	"repro/internal/harvestd"
	"repro/internal/ope"
)

// handler builds the aggregator's stdlib-only HTTP API:
//
//	GET  /healthz     liveness + uptime + live/total shard counts
//	GET  /estimates   fleet-wide per-policy IPS/clipped/SNIPS estimates from
//	                  the merged shard state — the same shape (and, for the
//	                  same merged state, the same bytes) as one harvestd's
//	                  /estimates (?policy=name filters, ?delta=0.01
//	                  overrides confidence)
//	GET  /evidence    ?policy=a,b[&delta=]: what one rolloutd gate step
//	                  reads, from one walk of the shard set — the named
//	                  policies' merged estimate and diagnostics rows, the
//	                  fleet watermark and a stamp (folded count, live/total
//	                  shards), each shard's watermark report older than or
//	                  equal to its snapshot (see harvestd.Evidence); same
//	                  shape and status codes as harvestd's /evidence
//	GET  /diagnostics fleet estimator health: per-shard liveness/staleness
//	                  plus merged per-policy ESS, weight tails, clip and
//	                  floor fractions
//	GET  /freshness   fleet pipeline watermarks: per-shard watermark rows
//	                  merged into min-watermark / max-age / total-backlog
//	                  (see FleetFreshness), for rolloutd and fleetwatch
//	GET  /shards      per-shard pull status rows
//	GET  /metrics     Prometheus text: per-shard liveness/staleness/pull
//	                  counters and merged per-policy estimator gauges
func (a *Aggregator) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/estimates", a.handleEstimates)
	mux.HandleFunc("/evidence", a.handleEvidence)
	mux.HandleFunc("/diagnostics", a.handleDiagnostics)
	mux.HandleFunc("/freshness", a.handleFreshness)
	mux.HandleFunc("/shards", a.handleShards)
	mux.HandleFunc("/metrics", a.handleMetrics)
	return mux
}

func (a *Aggregator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v := a.View()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	uptime := a.cfg.Clock.Now().Sub(a.start)
	fmt.Fprintf(w, "ok uptime=%s shards=%d/%d\n",
		uptime.Round(time.Millisecond), v.LiveShards, v.TotalShards)
}

func (a *Aggregator) handleEstimates(w http.ResponseWriter, r *http.Request) {
	harvestd.ServeEstimates(w, r, a.cfg.Delta, func() harvestd.StateSnapshot { return a.View().StateSnapshot })
}

func (a *Aggregator) handleEvidence(w http.ResponseWriter, r *http.Request) {
	harvestd.ServeEvidence(w, r, a.cfg.Delta, a.Evidence)
}

// fleetDiagnostics is the /diagnostics payload: shard health, the merged
// pipeline counters, and the merged per-policy estimator-health rows.
type fleetDiagnostics struct {
	UptimeSeconds    float64                   `json:"uptime_seconds"`
	Delta            float64                   `json:"delta"`
	PullIntervalSecs float64                   `json:"pull_interval_seconds"`
	PullTimeoutSecs  float64                   `json:"pull_timeout_seconds"`
	StaleAfterSecs   float64                   `json:"stale_after_seconds"`
	TotalShards      int                       `json:"total_shards"`
	LiveShards       int                       `json:"live_shards"`
	Clip             float64                   `json:"clip"`
	PropensityFloor  float64                   `json:"propensity_floor"`
	EvalPanics       int64                     `json:"eval_panics"`
	Counters         harvestd.SnapshotCounters `json:"counters"`
	Shards           []ShardStatus             `json:"shards"`
	Policies         []ope.PolicyDiagnostics   `json:"policies"`
}

func (a *Aggregator) handleDiagnostics(w http.ResponseWriter, r *http.Request) {
	v := a.View()
	daemon.WriteJSON(w, fleetDiagnostics{
		UptimeSeconds:    a.cfg.Clock.Now().Sub(a.start).Seconds(),
		Delta:            a.cfg.Delta,
		PullIntervalSecs: a.cfg.PullInterval.Seconds(),
		PullTimeoutSecs:  a.cfg.PullTimeout.Seconds(),
		StaleAfterSecs:   a.cfg.StaleAfter.Seconds(),
		TotalShards:      v.TotalShards,
		LiveShards:       v.LiveShards,
		Clip:             v.Clip,
		PropensityFloor:  v.Floor,
		EvalPanics:       v.EvalPanics,
		Counters:         v.Counters,
		Shards:           v.Shards,
		Policies:         v.Diagnostics(),
	})
}

func (a *Aggregator) handleFreshness(w http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(w, a.Freshness())
}

func (a *Aggregator) handleShards(w http.ResponseWriter, r *http.Request) {
	v := a.View()
	daemon.WriteJSON(w, v.Shards)
}

func (a *Aggregator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	a.updateMetrics()
	a.obsReg.Handler().ServeHTTP(w, r)
}
