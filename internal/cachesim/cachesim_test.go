package cachesim

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func newCache(t *testing.T, cfg Config, ev Evictor, seed int64) *Cache {
	t.Helper()
	c, err := New(cfg, ev, stats.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	r := stats.NewRand(1)
	if _, err := New(Config{MaxBytes: 0}, LRUEvictor{}, r); err == nil {
		t.Error("zero budget should fail")
	}
	if _, err := New(Config{MaxBytes: 10}, nil, r); err == nil {
		t.Error("nil evictor should fail")
	}
	if _, err := New(Config{MaxBytes: 10}, LRUEvictor{}, nil); err == nil {
		t.Error("nil rand should fail")
	}
}

func TestGetSetBasics(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 100}, LRUEvictor{}, 1)
	if c.Get("a") {
		t.Error("empty cache should miss")
	}
	if err := c.Set("a", 10); err != nil {
		t.Fatal(err)
	}
	if !c.Get("a") {
		t.Error("should hit after set")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.UsedBytes != 10 || st.Items != 1 {
		t.Errorf("stats = %+v", st)
	}
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", c.HitRate())
	}
}

func TestSetRejectsOversizeAndBadInput(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 100}, LRUEvictor{}, 2)
	if err := c.Set("big", 101); err == nil {
		t.Error("oversize item should fail")
	}
	if err := c.Set("zero", 0); err == nil {
		t.Error("zero size should fail")
	}
	if err := c.Set("neg", -1); err == nil {
		t.Error("negative size should fail")
	}
}

func TestEvictionKeepsBudget(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 100, SampleSize: 3}, RandomEvictor{R: stats.NewRand(3)}, 4)
	for i := 0; i < 50; i++ {
		c.Advance(float64(i))
		if err := c.Set(fmt.Sprintf("k%d", i), 10); err != nil {
			t.Fatal(err)
		}
		if c.Stats().UsedBytes > 100 {
			t.Fatalf("over budget: %d", c.Stats().UsedBytes)
		}
	}
	st := c.Stats()
	if st.Items != 10 {
		t.Errorf("items = %d, want 10", st.Items)
	}
	if st.Evictions != 40 {
		t.Errorf("evictions = %d, want 40", st.Evictions)
	}
}

func TestUpdateInPlaceAdjustsBytes(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 100}, LRUEvictor{}, 5)
	if err := c.Set("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("a", 30); err != nil {
		t.Fatal(err)
	}
	if c.Stats().UsedBytes != 30 || c.Stats().Items != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
	// Growing an item can force eviction of others but never of itself.
	if err := c.Set("b", 60); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("a", 90); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("a") {
		t.Error("resized item evicted itself")
	}
	if c.Stats().UsedBytes > 100 {
		t.Errorf("over budget after resize: %+v", c.Stats())
	}
}

func TestDeleteAndFlush(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 100}, LRUEvictor{}, 6)
	if err := c.Set("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("b", 10); err != nil {
		t.Fatal(err)
	}
	if !c.Delete("a") {
		t.Error("delete should report true for resident key")
	}
	if c.Delete("a") {
		t.Error("double delete should report false")
	}
	if c.Stats().UsedBytes != 10 {
		t.Errorf("used = %d", c.Stats().UsedBytes)
	}
	c.Flush()
	if c.Stats().Items != 0 || c.Stats().UsedBytes != 0 {
		t.Errorf("flush left %+v", c.Stats())
	}
	if c.Contains("b") {
		t.Error("flush should remove all")
	}
}

func TestLRUEvictorPicksOldest(t *testing.T) {
	cands := []Candidate{
		{Key: "a", LastAccess: 5},
		{Key: "b", LastAccess: 1},
		{Key: "c", LastAccess: 9},
	}
	if got := (LRUEvictor{}).Choose(cands, 10); got != 1 {
		t.Errorf("lru chose %d, want 1", got)
	}
}

func TestLFUEvictorPicksRarest(t *testing.T) {
	cands := []Candidate{
		{Key: "a", Frequency: 5},
		{Key: "b", Frequency: 2},
		{Key: "c", Frequency: 9},
	}
	if got := (LFUEvictor{}).Choose(cands, 10); got != 1 {
		t.Errorf("lfu chose %d, want 1", got)
	}
}

func TestFreqSizeEvictorPicksLowestDensity(t *testing.T) {
	cands := []Candidate{
		{Key: "small-hot", Size: 1, Frequency: 4},  // 4.0
		{Key: "big-hot", Size: 8, Frequency: 8},    // 1.0
		{Key: "small-cold", Size: 2, Frequency: 1}, // 0.5
	}
	if got := (FreqSizeEvictor{}).Choose(cands, 10); got != 2 {
		t.Errorf("freq/size chose %d, want 2", got)
	}
}

func TestRandomEvictorUniform(t *testing.T) {
	ev := RandomEvictor{R: stats.NewRand(7)}
	cands := make([]Candidate, 4)
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[ev.Choose(cands, 0)]++
	}
	for i, c := range counts {
		frac := float64(c) / 40000
		if frac < 0.22 || frac > 0.28 {
			t.Errorf("candidate %d chosen %v, want ≈0.25", i, frac)
		}
	}
	d := ev.Distribution(cands, 0)
	for _, p := range d {
		if p != 0.25 {
			t.Errorf("distribution = %v", d)
		}
	}
}

func TestEvictionLogPropensities(t *testing.T) {
	cfg := Config{MaxBytes: 100, SampleSize: 5, LogEvictions: true}
	c := newCache(t, cfg, RandomEvictor{R: stats.NewRand(9)}, 10)
	for i := 0; i < 40; i++ {
		c.Advance(float64(i))
		if err := c.Set(fmt.Sprintf("k%d", i), 10); err != nil {
			t.Fatal(err)
		}
	}
	log := c.EvictionLog()
	if len(log) != 30 {
		t.Fatalf("eviction log has %d records, want 30", len(log))
	}
	for _, rec := range log {
		want := 1 / float64(len(rec.Candidates))
		if rec.Propensity != want {
			t.Errorf("propensity %v, want %v", rec.Propensity, want)
		}
		if rec.Chosen < 0 || rec.Chosen >= len(rec.Candidates) {
			t.Errorf("chosen %d out of range", rec.Chosen)
		}
		if len(rec.Candidates) == 0 || len(rec.Candidates) > 5 {
			t.Errorf("candidate count %d", len(rec.Candidates))
		}
	}
}

func TestAccessLog(t *testing.T) {
	cfg := Config{MaxBytes: 100, LogAccesses: true}
	c := newCache(t, cfg, LRUEvictor{}, 11)
	c.Advance(1)
	c.Get("a") // miss
	if err := c.Set("a", 10); err != nil {
		t.Fatal(err)
	}
	c.Advance(2)
	c.Get("a") // hit
	log := c.AccessLog()
	if len(log) != 2 {
		t.Fatalf("access log %d records", len(log))
	}
	if log[0].Hit || !log[1].Hit {
		t.Errorf("hit flags wrong: %+v", log)
	}
	if log[1].Size != 10 {
		t.Errorf("hit record size = %d", log[1].Size)
	}
	if log[0].Time != 1 || log[1].Time != 2 {
		t.Errorf("timestamps: %+v", log)
	}
}

func TestSampleCandidatesDistinct(t *testing.T) {
	cfg := Config{MaxBytes: 1000, SampleSize: 8}
	c := newCache(t, cfg, LRUEvictor{}, 12)
	for i := 0; i < 20; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), 10); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 200; trial++ {
		cands := c.sampleCandidates("")
		if len(cands) != 8 {
			t.Fatalf("sample size %d", len(cands))
		}
		seen := map[string]bool{}
		for _, cd := range cands {
			if seen[cd.Key] {
				t.Fatalf("duplicate candidate %q", cd.Key)
			}
			seen[cd.Key] = true
			if !c.Contains(cd.Key) {
				t.Fatalf("sampled non-resident key %q", cd.Key)
			}
		}
	}
}

func TestAdvanceMonotone(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 10}, LRUEvictor{}, 13)
	c.Advance(5)
	c.Advance(3) // ignored
	if c.Now() != 5 {
		t.Errorf("Now = %v", c.Now())
	}
}

// Property: under arbitrary set/get/delete sequences the cache never
// exceeds its byte budget and Items always matches the key slice length.
func TestBudgetInvariantProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		c, err := New(Config{MaxBytes: 64, SampleSize: 3}, RandomEvictor{R: stats.NewRand(seed)}, stats.NewRand(seed+1))
		if err != nil {
			return false
		}
		for i, op := range ops {
			c.Advance(float64(i))
			key := fmt.Sprintf("k%d", op%40)
			switch op % 3 {
			case 0:
				size := int64(op%20) + 1
				if err := c.Set(key, size); err != nil {
					return false
				}
			case 1:
				c.Get(key)
			case 2:
				c.Delete(key)
			}
			st := c.Stats()
			if st.UsedBytes > st.MaxBytes || st.UsedBytes < 0 {
				return false
			}
			if st.Items != len(c.keys) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFeaturize(t *testing.T) {
	c := Candidate{Size: 200, Frequency: 3, LastAccess: 90, InsertedAt: 50}
	v := Featurize(c, 100)
	if len(v) != 4 {
		t.Fatalf("dim = %d", len(v))
	}
	if v[0] != 2 || v[1] != 3 || v[2] != 0.1 || v[3] != 0.5 {
		t.Errorf("features = %v", v)
	}
}

func TestContextFromCandidates(t *testing.T) {
	cands := []Candidate{{Size: 100}, {Size: 200}, {Size: 300}}
	ctx := ContextFromCandidates(cands, 10)
	if ctx.NumActions != 3 || len(ctx.ActionFeatures) != 3 {
		t.Fatalf("context shape: %+v", ctx)
	}
	if err := ctx.Validate(); err != nil {
		t.Fatal(err)
	}
}
