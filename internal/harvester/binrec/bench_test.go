package binrec

// Codec benchmarks, run by `make bench` into BENCH_harvestd.json. Each op
// processes one benchRecords-record dataset, so ns/op is the whole-dataset
// cost; the reported records/sec metric is the per-record throughput the
// ROADMAP's "millions of records per second per core" claim is measured by.

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/lbsim"
	"repro/internal/stats"
)

const benchRecords = 4096

// benchDataset mirrors the netlb ingest shape (the harvestd fold
// benchmarks use the same construction): k-upstream contexts with
// per-action features.
func benchDataset(n, k int) core.Dataset {
	r := stats.NewRand(1)
	ds := make(core.Dataset, n)
	for i := range ds {
		conns := make([]int, k)
		for s := range conns {
			conns[s] = r.Intn(8)
		}
		ds[i] = core.Datapoint{
			Context:    lbsim.BuildContext(conns, 0, 1),
			Action:     core.Action(r.Intn(k)),
			Reward:     0.002 + 0.003*r.Float64(),
			Propensity: 1 / float64(k),
			Seq:        int64(i),
			Tag:        "bench",
		}
	}
	return ds
}

func BenchmarkBinRecEncode(b *testing.B) {
	ds := benchDataset(benchRecords, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := NewEncoder(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for j := range ds {
			if err := enc.Write(&ds[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchRecords)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkBinRecDecode is the zero-alloc batch decode path over a reused
// Decoder and Batch, at the narrow (k2) and the wide-fold-read (k8) context
// width. allocs/op must stay 0.
func BenchmarkBinRecDecode(b *testing.B) {
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			wire := encodeAll(b, benchDataset(benchRecords, k), 0)
			dec := NewDecoder(bytes.NewReader(wire))
			r := bytes.NewReader(wire)
			var batch Batch
			total := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(wire)
				dec.Reset(r)
				for {
					err := dec.Next(&batch)
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					total += len(batch.Points)
				}
			}
			b.StopTimer()
			if total != b.N*benchRecords {
				b.Fatalf("decoded %d records, want %d", total, b.N*benchRecords)
			}
			b.ReportMetric(float64(benchRecords)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
