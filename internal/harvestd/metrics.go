package harvestd

import (
	"repro/internal/obs"
	"repro/internal/ope"
)

// Metric help strings, shared between registration and scrape-time updates
// (the obs registry enforces that help text never changes for a name).
const (
	helpPolicyN          = "datapoints folded into the policy's estimators"
	helpPolicyMatchRate  = "fraction of datapoints on which the policy put positive probability"
	helpPolicyMean       = "current off-policy point estimate"
	helpPolicyStderr     = "standard error of the off-policy estimate"
	helpPolicyESS        = "Kish effective sample size (sum w)^2 / sum w^2"
	helpPolicyESSFrac    = "effective sample size as a fraction of n"
	helpPolicyMeanWeight = "mean importance weight (approximately 1 when calibrated)"
	helpPolicyMaxWeight  = "largest single importance weight folded"
	helpPolicyClipFrac   = "fraction of datapoints whose weight hit the clip cap"
	helpPolicyFloorFrac  = "fraction of datapoints logged below the propensity floor"
	helpWatermarkSeq     = "min across sources of the max folded record sequence (-1 before any sequenced fold)"
	helpWatermarkAge     = "seconds since the estimators last absorbed a batch (-1 never)"
	helpFreshnessBehind  = "records enqueued but not yet folded, across sources"
)

// initMetrics builds the daemon's obs registry. The ingestion hot path
// keeps writing plain atomics (see counters); the registry reads them
// through scrape-time functions, so instrumenting costs the pipeline
// nothing.
func (d *Daemon) initMetrics() {
	r := obs.NewRegistry()
	r.GaugeFunc("harvestd_uptime_seconds", "seconds since the daemon started", func() float64 {
		return d.cfg.Clock.Now().Sub(d.start).Seconds()
	})
	r.CounterFunc("harvestd_lines_total", "raw input lines or records seen", d.ctr.lines.Load)
	r.CounterFunc("harvestd_parse_errors_total", "unparseable input lines", d.ctr.parseErrors.Load)
	r.CounterFunc("harvestd_rejected_total", "parsed lines carrying no usable datapoint", d.ctr.rejected.Load)
	r.CounterFunc("harvestd_ingested_total", "datapoints enqueued for folding", d.ctr.ingested.Load)
	r.CounterFunc("harvestd_folded_total", "datapoints folded into estimators", d.ctr.folded.Load)
	r.CounterFunc("harvestd_checkpoints_total", "successful checkpoint writes", d.ctr.checkpoints.Load)
	r.CounterFunc("harvestd_policy_eval_panics_total", "policy evaluations skipped after a panic", d.reg.EvalPanics)
	r.GaugeFunc("harvestd_ingest_rate_lines_per_second", "lines seen per second of uptime", func() float64 {
		uptime := d.cfg.Clock.Now().Sub(d.start).Seconds()
		if uptime <= 0 {
			return 0
		}
		return float64(d.ctr.lines.Load()) / uptime
	})
	r.GaugeFunc("harvestd_queue_depth", "batches waiting in the ingestion queue", func() float64 {
		return float64(len(d.queue))
	})
	r.GaugeFunc("harvestd_queue_capacity", "ingestion queue capacity in batches", func() float64 {
		return float64(cap(d.queue))
	})
	r.GaugeFunc("harvestd_workers", "ingestion worker count", func() float64 {
		return float64(d.cfg.Workers)
	})
	r.GaugeFunc("harvestd_sources", "configured log sources", func() float64 {
		return float64(len(d.sources))
	})
	obs.RegisterGoRuntime(r)
	d.obsReg = r
}

// updateMetrics refreshes, at scrape time, the series read from the
// daemon's state rather than from one atomic: the three watermark gauges
// from one FreshnessNow, and the per-policy gauges from one snapshot.
// Policy series appear on the first scrape after registration and track
// the merged state from then on.
func (d *Daemon) updateMetrics() {
	r := d.obsReg
	fr := d.FreshnessNow()
	r.Gauge("harvestd_watermark_seq", helpWatermarkSeq).Set(float64(fr.WatermarkSeq))
	r.Gauge("harvestd_watermark_age_seconds", helpWatermarkAge).Set(fr.WatermarkAgeSeconds)
	r.Gauge("harvestd_freshness_behind", helpFreshnessBehind).Set(float64(fr.Behind))
	snap := d.snapshot(nil)
	ests := snap.Estimates(d.cfg.Delta)
	diags := snap.Diagnostics()
	for i, pe := range ests {
		r.Gauge("harvestd_policy_n", helpPolicyN, "policy", pe.Policy).Set(float64(pe.N))
		r.Gauge("harvestd_policy_match_rate", helpPolicyMatchRate, "policy", pe.Policy).Set(pe.MatchRate)
		for _, est := range []struct {
			name string
			ev   ope.EstimatorValue
		}{
			{"ips", pe.IPS},
			{"clipped_ips", pe.ClippedIPS},
			{"snips", pe.SNIPS},
		} {
			labels := []string{"policy", pe.Policy, "estimator", est.name}
			r.Gauge("harvestd_policy_mean", helpPolicyMean, labels...).Set(est.ev.Value)
			r.Gauge("harvestd_policy_stderr", helpPolicyStderr, labels...).Set(est.ev.StdErr)
		}
		dg := diags[i]
		r.Gauge("harvestd_policy_ess", helpPolicyESS, "policy", pe.Policy).Set(dg.ESS)
		r.Gauge("harvestd_policy_ess_fraction", helpPolicyESSFrac, "policy", pe.Policy).Set(dg.ESSFraction)
		r.Gauge("harvestd_policy_mean_weight", helpPolicyMeanWeight, "policy", pe.Policy).Set(dg.MeanWeight)
		r.Gauge("harvestd_policy_max_weight", helpPolicyMaxWeight, "policy", pe.Policy).Set(dg.MaxWeight)
		r.Gauge("harvestd_policy_clip_fraction", helpPolicyClipFrac, "policy", pe.Policy).Set(dg.ClipFraction)
		r.Gauge("harvestd_policy_floor_fraction", helpPolicyFloorFrac, "policy", pe.Policy).Set(dg.FloorFraction)
	}
}
