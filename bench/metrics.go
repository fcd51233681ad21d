package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// metricDef is one row of the benchmark's metric table. BENCHMARK.json at
// the repo root carries the same rows; bench_test.go fails on drift.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// endToEnd are the gated metrics: what an operator of the loop sees. Every
// workload reports every one of them (each run has a catch-up phase and a
// live phase), always from a pass without tracing. Bounds come from the
// ten-seed spread procedure in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_records_per_s", "records/s", "higher", 0.25},
	{"decision_latency_p50_ms", "ms", "lower", 0.25},
	{"decision_latency_p90_ms", "ms", "lower", 0.20},
	{"proxy_request_p50_us", "us", "lower", 0.20},
}

// perLayer are the layer metrics of the traced pass, named after the
// module they time from outside. They carry no bound.
var perLayer = []metricDef{
	{Name: "binrec.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "binrec.bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "harvester.parse_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "harvester.parse_allocs_per_line", Unit: "count", Better: "lower"},
	{Name: "core.validate_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "policy.eval_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "policy.eval_allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "harvestd.registry_fold_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "harvestd.fold_self_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "harvestd.source_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "harvestd.cpu_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "harvestd.unattributed_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "harvestd.allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "harvestd.alloc_bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "harvestd.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "harvestd.queue_depth_p50", Unit: "count", Better: "lower"},
	{Name: "harvestd.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "harvestd.lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harvestd.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "harvestd.raw_records_per_s", Unit: "records/s", Better: "higher"},
	{Name: "harvestd.workers1_records_per_s", Unit: "records/s", Better: "higher"},
	{Name: "harvestd.worker_scaling", Unit: "ratio", Better: "higher"},
	{Name: "harvestd.api_read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harvestd.api_read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "harvestd.estimates_call_us", Unit: "us", Better: "lower"},
	{Name: "harvestd.estimates_http_us", Unit: "us", Better: "lower"},
	{Name: "harvestd.snapshot_encode_us", Unit: "us", Better: "lower"},
	{Name: "harvestd.snapshot_decode_us", Unit: "us", Better: "lower"},
	{Name: "harvestd.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "harvestd.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "harvestd.lines", Unit: "count", Better: "higher"},
	{Name: "harvestd.folded", Unit: "count", Better: "higher"},
	{Name: "harvestd.rejected", Unit: "count", Better: "lower"},
	{Name: "harvestd.parse_errors", Unit: "count", Better: "lower"},
	{Name: "fleet.pull_p50_us", Unit: "us", Better: "lower"},
	{Name: "fleet.pull_p99_us", Unit: "us", Better: "lower"},
	{Name: "fleet.pull_errors", Unit: "count", Better: "lower"},
	{Name: "fleet.view_us", Unit: "us", Better: "lower"},
	{Name: "rollout.step_p50_us", Unit: "us", Better: "lower"},
	{Name: "rollout.step_p99_us", Unit: "us", Better: "lower"},
	{Name: "rollout.decisions", Unit: "count", Better: "higher"},
	{Name: "rollout.step_errors", Unit: "count", Better: "lower"},
	{Name: "rollout.fetch_us", Unit: "us", Better: "lower"},
	{Name: "rollout.gate_self_us", Unit: "us", Better: "lower"},
	{Name: "netlb.direct_p50_us", Unit: "us", Better: "lower"},
	{Name: "netlb.added_p50_us", Unit: "us", Better: "lower"},
	{Name: "netlb.request_p99_us", Unit: "us", Better: "lower"},
	{Name: "netlb.requests_per_s", Unit: "1/s", Better: "higher"},
	{Name: "netlb.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "netlb.log_bytes_per_request", Unit: "bytes", Better: "lower"},
	{Name: "hop.logged_to_folded_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "hop.folded_to_pulled_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "hop.pulled_to_gated_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "loop.decision_latency_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "loop.decision_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loop.cycle_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loop.request_fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loop.ingest_fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ingest_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.ref_kernel_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.rep_spread", Unit: "ratio", Better: "lower"},
	{Name: "bench.peak_heap_mb", Unit: "MB", Better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect builds the metric map a run reports: exactly the rows of defs,
// each with a finite measured value.
func collect(defs []metricDef, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// quantile is stats.Quantile with NaN for no samples, which collect refuses.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return math.NaN()
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is stats.Mean with NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Mean(xs)
}

// iqrShare is the distance between the quartiles as a share of the median,
// with the quartiles of Python's statistics.quantiles(xs, n=4) (exclusive
// method) — the spread the acceptance procedure in README.md uses.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th quartile cut, exclusive method
		pos := float64(i*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= n-1 {
			return s[n-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
