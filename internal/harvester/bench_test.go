package harvester

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lbsim"
	"repro/internal/stats"
)

// benchDataset builds a fixed exploration set for the estimator benchmarks.
func benchDataset(n int) core.Dataset {
	r := stats.NewRand(3)
	ds := make(core.Dataset, n)
	for i := range ds {
		conns := []int{r.Intn(10), r.Intn(10), r.Intn(10)}
		a := core.Action(r.Intn(3))
		ds[i] = core.Datapoint{
			Context:    lbsim.BuildContext(conns, 0, 1),
			Action:     a,
			Reward:     0.1 + 0.01*float64(conns[a]),
			Propensity: 1.0 / 3,
		}
	}
	return ds
}

// BenchmarkIncrementalEstimator measures the per-datapoint fold — the hot
// path of every ingestion worker in harvestd.
func BenchmarkIncrementalEstimator(b *testing.B) {
	ds := benchDataset(4096)
	ie, err := NewIncrementalEstimator(lbsim.LeastLoaded{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ie.Add(ds[i&4095]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalEstimatorSnapshot measures the read path a live API
// hits on every scrape.
func BenchmarkIncrementalEstimatorSnapshot(b *testing.B) {
	ds := benchDataset(4096)
	ie, err := NewIncrementalEstimator(lbsim.LeastLoaded{})
	if err != nil {
		b.Fatal(err)
	}
	for i := range ds {
		if err := ie.Add(ds[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := ie.Snapshot(); s.N == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkIncrementalEstimatorMerge measures merging one worker shard into
// an aggregate — the per-read cost of the sharded design.
func BenchmarkIncrementalEstimatorMerge(b *testing.B) {
	ds := benchDataset(4096)
	pol := lbsim.LeastLoaded{}
	shard, err := NewIncrementalEstimator(pol)
	if err != nil {
		b.Fatal(err)
	}
	for i := range ds {
		if err := shard.Add(ds[i]); err != nil {
			b.Fatal(err)
		}
	}
	agg, err := NewIncrementalEstimator(pol)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg.Merge(shard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNginxLines renders n access-log lines over k upstreams in netlb's
// format, a new timestamp every 500 lines.
func benchNginxLines(n, k int) [][]byte {
	r := stats.NewRand(5)
	lines := make([][]byte, n)
	for i := range lines {
		conns := make([]string, k)
		for j := range conns {
			conns[j] = strconv.Itoa(r.Intn(10))
		}
		lines[i] = []byte(fmt.Sprintf(`127.0.0.1:%d - - [06/Jul/2026:10:30:%02d +0000] "GET /api/x?q=%d HTTP/1.1" 200 42 "-" "Go-http-client/1.1" rt=%.6f upstream=%d conns=%s prop=%.6f`,
			40000+i, i/500%60, i, 0.001+0.01*r.Float64(), r.Intn(k), strings.Join(conns, "|"), 1/float64(k)))
	}
	return lines
}

// BenchmarkParseNginxLine measures one access-log line → one datapoint, on
// the compat API (ParseNginxLine + EntryToTypedDatapoint, what one-off
// callers and the loop benchmark's parse probe use) and on the batch path
// harvestd ingests through, at 2 and 8 upstreams. batch/malformed is the
// hostile log: every line fails, a third each with junk before the remote,
// rt=oops appended, and the line cut in half.
func BenchmarkParseNginxLine(b *testing.B) {
	b.Run("batch/malformed", func(b *testing.B) {
		lines := benchNginxLines(4096, 2)
		for i, l := range lines {
			switch i % 3 {
			case 0:
				lines[i] = append([]byte("junk here "), l...)
			case 1:
				lines[i] = append(l, " rt=oops"...)
			case 2:
				lines[i] = l[:len(l)/2]
			}
		}
		var batch NginxBatch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, err := batch.Append(lines[i&4095], 1, int64(i)); ok || err == nil {
				b.Fatal(ok, err)
			}
		}
	})
	for _, k := range []int{2, 8} {
		lines := benchNginxLines(4096, k)
		b.Run(fmt.Sprintf("compat/k%d", k), func(b *testing.B) {
			text := make([]string, len(lines))
			for i := range lines {
				text[i] = string(lines[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := ParseNginxLine(text[i&4095])
				if err != nil {
					b.Fatal(err)
				}
				if _, ok, err := EntryToTypedDatapoint(e, 1); !ok || err != nil {
					b.Fatal(ok, err)
				}
			}
		})
		b.Run(fmt.Sprintf("batch/k%d", k), func(b *testing.B) {
			var batch NginxBatch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&511 == 0 {
					batch.Reset()
				}
				if ok, err := batch.Append(lines[i&4095], 1, int64(i)); !ok || err != nil {
					b.Fatal(ok, err)
				}
			}
		})
	}
}
