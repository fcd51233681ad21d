package fleet

import (
	"repro/internal/obs"
	"repro/internal/ope"
)

// Metric help strings shared between registration and scrape-time updates
// (the obs registry enforces that help text never changes for a name).
const (
	helpShardsLive      = "shards inside the staleness window"
	helpMergedN         = "datapoints folded across live shards"
	helpWatermarkSeq    = "min across live shards of the folded-record sequence watermark (-1 unknown)"
	helpWatermarkAge    = "max across live shards of the effective estimator age (-1 unknown)"
	helpFreshnessBehind = "records enqueued but not yet folded, across live shards"
	helpShardUp         = "1 when the shard's last snapshot is inside the staleness window"
	helpShardStaleness  = "seconds since the shard's last successful snapshot pull (-1 never)"
	helpShardSeq        = "last snapshot sequence number delivered by the shard"
	helpShardN          = "datapoints folded per the shard's last snapshot"
	helpPolicyN         = "datapoints folded into the policy's merged fleet estimators"
	helpPolicyMean      = "fleet-wide off-policy point estimate"
	helpPolicyStderr    = "standard error of the fleet-wide estimate"
	helpPolicyESS       = "fleet-wide Kish effective sample size (sum w)^2 / sum w^2"
	helpPolicyESSFrac   = "fleet-wide effective sample size as a fraction of n"
	helpPolicyClipFrac  = "fleet-wide fraction of datapoints whose weight hit the clip cap"
)

// initMetrics builds the aggregator's obs registry: the series read from
// one counter or constant, as scrape-time readers. The series read from
// the merged state are set per scrape in updateMetrics.
func (a *Aggregator) initMetrics() {
	r := obs.NewRegistry()
	r.GaugeFunc("harvestagg_uptime_seconds", "seconds since the aggregator started", func() float64 {
		return a.cfg.Clock.Now().Sub(a.start).Seconds()
	})
	r.GaugeFunc("harvestagg_shards", "configured fleet shards", func() float64 {
		return float64(len(a.shards))
	})
	r.CounterFunc("harvestagg_checkpoints_total", "successful checkpoint writes", a.checkpoints.Load)
	for _, st := range a.shards {
		labels := []string{"shard", st.shard.Name}
		r.CounterFunc("harvestagg_shard_pulls_total", "snapshot pulls attempted", st.pulls.Load, labels...)
		r.CounterFunc("harvestagg_shard_pull_errors_total", "snapshot pulls failed", st.pullErrors.Load, labels...)
		r.CounterFunc("harvestagg_shard_restarts_total", "snapshot sequence regressions (shard restarts)", st.restarts.Load, labels...)
	}
	obs.RegisterGoRuntime(r)
	a.obsReg = r
}

// updateMetrics sets, at scrape time, every series read from the merged
// state — fleet liveness and watermark, per-shard health, per-policy
// estimates — from one View, so the pull loops pay nothing and one scrape
// is one walk of the shard set.
func (a *Aggregator) updateMetrics() {
	v := a.View()
	r := a.obsReg
	r.Gauge("harvestagg_shards_live", helpShardsLive).Set(float64(v.LiveShards))
	r.Gauge("harvestagg_merged_n", helpMergedN).Set(float64(v.Counters.Folded))
	r.Gauge("harvestagg_watermark_seq", helpWatermarkSeq).Set(float64(v.Freshness.WatermarkSeq))
	r.Gauge("harvestagg_watermark_age_seconds", helpWatermarkAge).Set(v.Freshness.WatermarkAgeSeconds)
	r.Gauge("harvestagg_freshness_behind", helpFreshnessBehind).Set(float64(v.Freshness.Behind))
	for _, st := range v.Shards {
		up := 0.0
		if st.Live {
			up = 1
		}
		r.Gauge("harvestagg_shard_up", helpShardUp, "shard", st.Name).Set(up)
		r.Gauge("harvestagg_shard_staleness_seconds", helpShardStaleness, "shard", st.Name).Set(st.AgeSeconds)
		r.Gauge("harvestagg_shard_snapshot_seq", helpShardSeq, "shard", st.Name).Set(float64(st.Seq))
		r.Gauge("harvestagg_shard_snapshot_n", helpShardN, "shard", st.Name).Set(float64(st.N))
	}
	for _, pe := range v.Estimates(a.cfg.Delta) {
		r.Gauge("harvestagg_policy_n", helpPolicyN, "policy", pe.Policy).Set(float64(pe.N))
		for _, est := range []struct {
			name string
			ev   ope.EstimatorValue
		}{
			{"ips", pe.IPS},
			{"clipped_ips", pe.ClippedIPS},
			{"snips", pe.SNIPS},
		} {
			labels := []string{"policy", pe.Policy, "estimator", est.name}
			r.Gauge("harvestagg_policy_mean", helpPolicyMean, labels...).Set(est.ev.Value)
			r.Gauge("harvestagg_policy_stderr", helpPolicyStderr, labels...).Set(est.ev.StdErr)
		}
	}
	for _, dg := range v.Diagnostics() {
		r.Gauge("harvestagg_policy_ess", helpPolicyESS, "policy", dg.Policy).Set(dg.ESS)
		r.Gauge("harvestagg_policy_ess_fraction", helpPolicyESSFrac, "policy", dg.Policy).Set(dg.ESSFraction)
		r.Gauge("harvestagg_policy_clip_fraction", helpPolicyClipFrac, "policy", dg.Policy).Set(dg.ClipFraction)
	}
}
