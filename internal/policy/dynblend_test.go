package policy

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestNewDynamicBlendValidation(t *testing.T) {
	r := stats.NewRand(1)
	if _, err := NewDynamicBlend(nil, Constant{A: 0}, 0.5, r); err == nil {
		t.Error("nil new policy should fail")
	}
	if _, err := NewDynamicBlend(Constant{A: 0}, nil, 0.5, r); err == nil {
		t.Error("nil old policy should fail")
	}
	if _, err := NewDynamicBlend(Constant{A: 0}, Constant{A: 1}, 1.5, r); err == nil {
		t.Error("share>1 should fail")
	}
	if _, err := NewDynamicBlend(Constant{A: 0}, Constant{A: 1}, 0.5, nil); err == nil {
		t.Error("nil rand should fail")
	}
	b, err := NewDynamicBlend(Constant{A: 0}, Constant{A: 1}, 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if err := b.SetShare(bad); err == nil {
			t.Errorf("SetShare(%v) should fail", bad)
		}
	}
	if b.Share() != 0.5 {
		t.Errorf("share moved to %v after rejected updates", b.Share())
	}
}

// TestDynamicBlendRetune moves the share mid-stream and checks both the
// action frequencies and the logged distribution track it.
func TestDynamicBlendRetune(t *testing.T) {
	b, err := NewDynamicBlend(Constant{A: 1}, Constant{A: 0}, 0, stats.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &core.Context{NumActions: 2}
	for i := 0; i < 200; i++ {
		if b.Act(ctx) != 0 {
			t.Fatal("share=0 must route everything to the old policy")
		}
	}
	if d := b.Distribution(ctx); d[0] != 1 || d[1] != 0 {
		t.Fatalf("shadow distribution = %v", d)
	}

	if err := b.SetShare(0.3); err != nil {
		t.Fatal(err)
	}
	hits, n := 0, 100000
	for i := 0; i < n; i++ {
		if b.Act(ctx) == 1 {
			hits++
		}
	}
	if frac := float64(hits) / float64(n); math.Abs(frac-0.3) > 0.01 {
		t.Errorf("new-policy share = %v, want 0.3", frac)
	}
	if d := b.Distribution(ctx); math.Abs(d[1]-0.3) > 1e-12 || math.Abs(d[0]-0.7) > 1e-12 {
		t.Errorf("canary distribution = %v", d)
	}

	if err := b.SetShare(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if b.Act(ctx) != 1 {
			t.Fatal("share=1 must route everything to the new policy")
		}
	}
	if b.String() != "dynblend" {
		t.Errorf("String = %q, want share-independent name", b.String())
	}
}

// TestDynamicBlendConcurrentRetune hammers SetShare from one goroutine
// while another makes routing decisions — the exact topology of a rollout
// controller actuating a live proxy. Run under -race this pins the atomic
// share handoff; semantically it checks every decision sees a valid share.
func TestDynamicBlendConcurrentRetune(t *testing.T) {
	b, err := NewDynamicBlend(Constant{A: 1}, Constant{A: 0}, 0, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &core.Context{NumActions: 2}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		shares := []float64{0, 0.01, 0.05, 0.25, 1, 0}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := b.SetShare(shares[i%len(shares)]); err != nil {
				t.Errorf("SetShare: %v", err)
				return
			}
		}
	}()
	// Act and Distribution are serialized (the proxy routes under its own
	// lock); only SetShare is concurrent.
	for i := 0; i < 50000; i++ {
		d := b.Distribution(ctx)
		if math.Abs(d[0]+d[1]-1) > 1e-12 {
			t.Fatalf("distribution %v does not sum to 1", d)
		}
		if a := b.Act(ctx); a != 0 && a != 1 {
			t.Fatalf("action %d out of range", a)
		}
	}
	close(done)
	wg.Wait()
}

// TestNewBlendValidation: construction refuses a missing policy, a share
// outside [0, 1] on either side, and a missing random source.
func TestNewBlendValidation(t *testing.T) {
	r := stats.NewRand(1)
	if _, err := NewDynamicBlend(nil, Constant{A: 0}, 0.5, r); err == nil {
		t.Error("nil new policy should fail")
	}
	if _, err := NewDynamicBlend(Constant{A: 0}, nil, 0.5, r); err == nil {
		t.Error("nil old policy should fail")
	}
	if _, err := NewDynamicBlend(Constant{A: 0}, Constant{A: 1}, 1.5, r); err == nil {
		t.Error("share>1 should fail")
	}
	if _, err := NewDynamicBlend(Constant{A: 0}, Constant{A: 1}, -0.1, r); err == nil {
		t.Error("share<0 should fail")
	}
	if _, err := NewDynamicBlend(Constant{A: 0}, Constant{A: 1}, 0.5, nil); err == nil {
		t.Error("nil rand should fail")
	}
}

// TestBlendActFrequencies: a blend built at share 0.3 sends that fraction
// of decisions to the new policy.
func TestBlendActFrequencies(t *testing.T) {
	b, err := NewDynamicBlend(Constant{A: 1}, Constant{A: 0}, 0.3, stats.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &core.Context{NumActions: 2}
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if b.Act(ctx) == 1 {
			hits++
		}
	}
	if frac := float64(hits) / float64(n); math.Abs(frac-0.3) > 0.01 {
		t.Errorf("new-policy share = %v, want 0.3", frac)
	}
}

// TestBlendDistributionDeterministicPair: two deterministic policies give
// a two-point mixture; an action neither picks gets no mass.
func TestBlendDistributionDeterministicPair(t *testing.T) {
	b, err := NewDynamicBlend(Constant{A: 2}, Constant{A: 0}, 0.25, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &core.Context{NumActions: 3}
	d := b.Distribution(ctx)
	if math.Abs(d[2]-0.25) > 1e-12 || math.Abs(d[0]-0.75) > 1e-12 || d[1] != 0 {
		t.Errorf("distribution = %v", d)
	}
	if b.String() != "dynblend" {
		t.Errorf("String = %q", b.String())
	}
}

// TestBlendDistributionStochasticPair: a stochastic New contributes its own
// distribution, scaled by the share, not a point mass.
func TestBlendDistributionStochasticPair(t *testing.T) {
	r := stats.NewRand(4)
	b, err := NewDynamicBlend(UniformRandom{R: stats.Split(r)}, Constant{A: 0}, 0.5, stats.Split(r))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &core.Context{NumActions: 4}
	d := b.Distribution(ctx)
	// 0.5·uniform + 0.5·pointmass(0): p0 = 0.5·0.25 + 0.5, others 0.125.
	if math.Abs(d[0]-0.625) > 1e-12 {
		t.Errorf("p0 = %v, want 0.625", d[0])
	}
	for a := 1; a < 4; a++ {
		if math.Abs(d[a]-0.125) > 1e-12 {
			t.Errorf("p%d = %v, want 0.125", a, d[a])
		}
	}
	sum := 0.0
	for _, p := range d {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("sums to %v", sum)
	}
}

// TestBlendEdgesShares: a blend built at share 1 always acts as New, one
// built at share 0 always as Old.
func TestBlendEdgesShares(t *testing.T) {
	r := stats.NewRand(5)
	full, err := NewDynamicBlend(Constant{A: 1}, Constant{A: 0}, 1, stats.Split(r))
	if err != nil {
		t.Fatal(err)
	}
	none, err := NewDynamicBlend(Constant{A: 1}, Constant{A: 0}, 0, stats.Split(r))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &core.Context{NumActions: 2}
	for i := 0; i < 50; i++ {
		if full.Act(ctx) != 1 {
			t.Fatal("share=1 should always use the new policy")
		}
		if none.Act(ctx) != 0 {
			t.Fatal("share=0 should always use the old policy")
		}
	}
}
