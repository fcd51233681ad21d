package obs

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

func TestHistogramBucketing(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1, 1.5, 2, 4.9, 5, 100, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le semantics: 0.5,1 -> bucket le=1; 1.5,2 -> le=2; 4.9,5 -> le=5;
	// 100 -> +Inf; NaN dropped.
	wantCounts := []uint64{2, 2, 2, 1}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], want, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if want := 0.5 + 1 + 1.5 + 2 + 4.9 + 5 + 100; math.Abs(s.Sum-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, want)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("empty buckets accepted")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Error("non-ascending buckets accepted")
	}
}

// TestHistogramConcurrentObserve hammers one histogram from 8 goroutines
// while a reader snapshots concurrently — the -race exercise for the
// sharded write path. Every observation must land exactly once.
func TestHistogramConcurrentObserve(t *testing.T) {
	h, err := NewHistogram(DefLatencyBuckets())
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		perG    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				var n uint64
				for _, c := range s.Counts {
					n += c
				}
				// A mid-flight snapshot must still be internally
				// consistent: bucket counts sum to the total count.
				if n != s.Count {
					t.Errorf("snapshot counts sum %d != count %d", n, s.Count)
					return
				}
			}
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := stats.NewRand(int64(100 + g))
			for i := 0; i < perG; i++ {
				h.Observe(r.Float64())
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	s := h.Snapshot()
	if s.Count != writers*perG {
		t.Errorf("count = %d, want %d", s.Count, writers*perG)
	}
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	if n != s.Count {
		t.Errorf("bucket sum %d != count %d", n, s.Count)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1}, "backend", "0")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{backend="0",le="0.1"} 1`,
		`lat_seconds_bucket{backend="0",le="1"} 2`,
		`lat_seconds_bucket{backend="0",le="+Inf"} 3`,
		`lat_seconds_sum{backend="0"} 3.55`,
		`lat_seconds_count{backend="0"} 3`,
		// Quantile pseudo-families, interpolated from the same snapshot:
		// p50 rank 1.5 lands in (0.1, 1] halfway -> 0.55; p90/p99 land in
		// the +Inf bucket, which reports the last finite bound.
		"# TYPE lat_seconds_p50 gauge",
		`lat_seconds_p50{backend="0"} 0.55`,
		"# TYPE lat_seconds_p90 gauge",
		`lat_seconds_p90{backend="0"} 1`,
		"# TYPE lat_seconds_p99 gauge",
		`lat_seconds_p99{backend="0"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// 100 uniform-ish observations, 25 per bucket midpoint.
	for b := 0; b < 4; b++ {
		for i := 0; i < 25; i++ {
			h.Observe(float64(b) + 0.5)
		}
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); math.Abs(q-2) > 0.1 {
		t.Errorf("p50 = %v, want ~2", q)
	}
	if q := s.Quantile(1); q != 4 {
		t.Errorf("p100 = %v, want 4", q)
	}
	empty := HistSnapshot{Buckets: []float64{1}, Counts: []uint64{0, 0}}
	if q := empty.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty quantile = %v, want NaN", q)
	}
}
