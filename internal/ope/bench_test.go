package ope

import (
	"testing"

	"repro/internal/stats"
)

// BenchmarkAccumFold measures one datapoint folded into an Accum — the
// per-record, per-policy cost of every batch estimate and of harvestd's
// ingest.
func BenchmarkAccumFold(b *testing.B) {
	r := stats.NewRand(1)
	pis := make([]float64, 1024)
	rewards := make([]float64, 1024)
	for i := range pis {
		pis[i] = r.Float64()
		rewards[i] = r.Float64()
	}
	var acc Accum
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % 1024
		acc.Fold(pis[k], 0.5, rewards[k], 3.0, 1e-3)
	}
}

// BenchmarkAccumMerge measures merging one worker's accumulator into
// another — the unit of work of a daemon read and of the aggregation tier.
func BenchmarkAccumMerge(b *testing.B) {
	r := stats.NewRand(7)
	var src Accum
	for i := 0; i < 1000; i++ {
		src.Fold(r.Float64(), 0.05+0.95*r.Float64(), -2+4*r.Float64(), 3.0, 1e-3)
	}
	var dst Accum
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Merge(&src)
	}
}
