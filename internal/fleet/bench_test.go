package fleet

import (
	"fmt"
	"testing"

	"repro/internal/harvestd"
	"repro/internal/ope"
)

// benchAggregator holds two live shards carrying k policies each, installed
// as a pull would install them.
func benchAggregator(b *testing.B, k int) *Aggregator {
	b.Helper()
	a, err := New(Config{Shards: []Shard{{Name: "shard-a", URL: "http://unused"}, {Name: "shard-b", URL: "http://unused"}}})
	if err != nil {
		b.Fatal(err)
	}
	for i, st := range a.shards {
		snap := testSnap(st.shard.Name, 1, int64(i), 0)
		snap.Policies = make(map[string]ope.Accum, k)
		for p := 0; p < k; p++ {
			snap.Policies[fmt.Sprintf("p%02d", p)] = testAccum(int64(100*i+p), 512)
		}
		snap.Counters.Folded = 512
		st.snap = snap
		st.lastSuccess = a.cfg.Clock.Now()
		st.fresh = &harvestd.FreshnessReport{Version: harvestd.FreshnessVersion, WatermarkSeq: 512}
		st.freshAt = st.lastSuccess
	}
	return a
}

// BenchmarkAggregatorEvidence measures what one rolloutd step costs the
// aggregator (one op = two policies' evidence from one walk of the shard
// set) with 3 and with 32 policies per shard: the cost must follow the two
// arms read, not the policies registered.
func BenchmarkAggregatorEvidence(b *testing.B) {
	for _, c := range []struct {
		name string
		k    int
	}{{"k3", 3}, {"wide32", 32}} {
		a := benchAggregator(b, c.k)
		names := []string{"p01", "p00"}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, unknown := a.Evidence(names, 0.05); unknown != "" {
					b.Fatalf("policy %q unknown", unknown)
				}
			}
		})
	}
}
