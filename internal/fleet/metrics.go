package fleet

import (
	"repro/internal/obs"
	"repro/internal/ope"
)

// Metric help strings shared between registration and scrape-time updates
// (the obs registry enforces that help text never changes for a name).
const (
	helpShardUp        = "1 when the shard's last snapshot is inside the staleness window"
	helpShardStaleness = "seconds since the shard's last successful snapshot pull (-1 never)"
	helpShardSeq       = "last snapshot sequence number delivered by the shard"
	helpShardN         = "datapoints folded per the shard's last snapshot"
	helpPolicyN        = "datapoints folded into the policy's merged fleet estimators"
	helpPolicyMean     = "fleet-wide off-policy point estimate"
	helpPolicyStderr   = "standard error of the fleet-wide estimate"
	helpPolicyESS      = "fleet-wide Kish effective sample size (sum w)^2 / sum w^2"
	helpPolicyESSFrac  = "fleet-wide effective sample size as a fraction of n"
	helpPolicyClipFrac = "fleet-wide fraction of datapoints whose weight hit the clip cap"
)

// initMetrics builds the aggregator's obs registry. Per-shard series are
// registered up front (the fleet membership is fixed for the aggregator's
// lifetime) as scrape-time readers over the shard states; merged per-policy
// series are refreshed per scrape in updatePolicyMetrics.
func (a *Aggregator) initMetrics() {
	r := obs.NewRegistry()
	r.GaugeFunc("harvestagg_uptime_seconds", "seconds since the aggregator started", func() float64 {
		return a.cfg.Clock.Now().Sub(a.start).Seconds()
	})
	r.GaugeFunc("harvestagg_shards", "configured fleet shards", func() float64 {
		return float64(len(a.shards))
	})
	r.GaugeFunc("harvestagg_shards_live", "shards inside the staleness window", func() float64 {
		v := a.View()
		return float64(v.LiveShards)
	})
	r.GaugeFunc("harvestagg_merged_n", "datapoints folded across live shards", func() float64 {
		v := a.View()
		return float64(v.Counters.Folded)
	})
	r.CounterFunc("harvestagg_checkpoints_total", "successful checkpoint writes", a.checkpoints.Load)
	r.GaugeFunc("harvestagg_watermark_seq", "min across live shards of the folded-record sequence watermark (-1 unknown)", func() float64 {
		return float64(a.Freshness().WatermarkSeq)
	})
	r.GaugeFunc("harvestagg_watermark_age_seconds", "max across live shards of the effective estimator age (-1 unknown)", func() float64 {
		return a.Freshness().WatermarkAgeSeconds
	})
	r.GaugeFunc("harvestagg_freshness_behind", "records enqueued but not yet folded, across live shards", func() float64 {
		return float64(a.Freshness().Behind)
	})
	for _, st := range a.shards {
		st := st
		labels := []string{"shard", st.shard.Name}
		r.GaugeFunc("harvestagg_shard_up", helpShardUp, func() float64 {
			now := a.cfg.Clock.Now()
			st.mu.Lock()
			defer st.mu.Unlock()
			if st.snap == nil {
				return 0
			}
			if a.cfg.StaleAfter > 0 && now.Sub(st.lastSuccess) > a.cfg.StaleAfter {
				return 0
			}
			return 1
		}, labels...)
		r.GaugeFunc("harvestagg_shard_staleness_seconds", helpShardStaleness, func() float64 {
			now := a.cfg.Clock.Now()
			st.mu.Lock()
			defer st.mu.Unlock()
			if st.lastSuccess.IsZero() {
				return -1
			}
			return now.Sub(st.lastSuccess).Seconds()
		}, labels...)
		r.GaugeFunc("harvestagg_shard_snapshot_seq", helpShardSeq, func() float64 {
			st.mu.Lock()
			defer st.mu.Unlock()
			if st.snap == nil {
				return 0
			}
			return float64(st.snap.Seq)
		}, labels...)
		r.GaugeFunc("harvestagg_shard_snapshot_n", helpShardN, func() float64 {
			st.mu.Lock()
			defer st.mu.Unlock()
			if st.snap == nil {
				return 0
			}
			return float64(st.snap.Counters.Folded)
		}, labels...)
		r.CounterFunc("harvestagg_shard_pulls_total", "snapshot pulls attempted", st.pulls.Load, labels...)
		r.CounterFunc("harvestagg_shard_pull_errors_total", "snapshot pulls failed", st.pullErrors.Load, labels...)
		r.CounterFunc("harvestagg_shard_restarts_total", "snapshot sequence regressions (shard restarts)", st.restarts.Load, labels...)
	}
	obs.RegisterGoRuntime(r)
	a.obsReg = r
}

// updatePolicyMetrics refreshes the merged per-policy gauges from the
// current fleet view. Called at scrape time, so the pull loops pay nothing.
func (a *Aggregator) updatePolicyMetrics() {
	v := a.View()
	r := a.obsReg
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
