package policy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/stats"
)

func ctxWithActions(k int, feats ...float64) *core.Context {
	return &core.Context{Features: feats, NumActions: k}
}

func TestConstant(t *testing.T) {
	c := Constant{A: 2}
	ctx := ctxWithActions(4)
	if c.Act(ctx) != 2 {
		t.Error("constant should return its action")
	}
	d := c.Distribution(ctx)
	if d[2] != 1 || d[0] != 0 {
		t.Errorf("distribution = %v", d)
	}
	// Out-of-range constant clamps.
	small := ctxWithActions(2)
	if c.Act(small) != 1 {
		t.Errorf("clamp failed: %d", c.Act(small))
	}
	if c.String() == "" {
		t.Error("String empty")
	}
}

func TestUniformRandom(t *testing.T) {
	u := UniformRandom{R: stats.NewRand(1)}
	ctx := ctxWithActions(5)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		counts[u.Act(ctx)]++
	}
	for a, c := range counts {
		frac := float64(c) / 50000
		if math.Abs(frac-0.2) > 0.02 {
			t.Errorf("action %d frequency %v, want 0.2", a, frac)
		}
	}
	d := u.Distribution(ctx)
	for _, p := range d {
		if p != 0.2 {
			t.Errorf("distribution %v", d)
		}
	}
}

func TestEpsilonGreedy(t *testing.T) {
	e := &EpsilonGreedy{Base: Constant{A: 0}, Epsilon: 0.2, R: stats.NewRand(5)}
	ctx := ctxWithActions(4)
	d := e.Distribution(ctx)
	if math.Abs(d[0]-(0.8+0.05)) > 1e-12 {
		t.Errorf("p(base) = %v, want 0.85", d[0])
	}
	for a := 1; a < 4; a++ {
		if math.Abs(d[a]-0.05) > 1e-12 {
			t.Errorf("p(%d) = %v, want 0.05", a, d[a])
		}
	}
	counts := make([]int, 4)
	for i := 0; i < 100000; i++ {
		counts[e.Act(ctx)]++
	}
	if math.Abs(float64(counts[0])/100000-0.85) > 0.01 {
		t.Errorf("empirical base rate = %v", float64(counts[0])/100000)
	}
}

func TestStump(t *testing.T) {
	s := Stump{Idx: 0, Cut: 0.5, Below: 1, Above: 3}
	if got := s.Act(ctxWithActions(4, 0.2)); got != 1 {
		t.Errorf("below: %d", got)
	}
	if got := s.Act(ctxWithActions(4, 0.8)); got != 3 {
		t.Errorf("above: %d", got)
	}
	// Missing feature treated as 0 → below branch.
	if got := s.Act(ctxWithActions(4)); got != 1 {
		t.Errorf("missing feature: %d", got)
	}
	// Out-of-range action clamps.
	if got := s.Act(ctxWithActions(2, 0.8)); got != 1 {
		t.Errorf("clamp: %d", got)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, s := range []string{
		UniformRandom{}.String(),
		(&EpsilonGreedy{Epsilon: 0.1}).String(),
	} {
		if s == "" {
			t.Error("empty String()")
		}
	}
}

// Property: every policy's Distribution sums to 1 and matches Act support.
func TestDistributionsSumToOne(t *testing.T) {
	r := stats.NewRand(6)
	f := func(kRaw uint8, feat float64) bool {
		k := int(kRaw%6) + 2
		if math.IsNaN(feat) || math.IsInf(feat, 0) {
			feat = 0
		}
		ctx := &core.Context{Features: core.Vector{math.Mod(feat, 10)}, NumActions: k}
		pols := []core.StochasticPolicy{
			Constant{A: 1},
			UniformRandom{R: r},
			&EpsilonGreedy{Base: Constant{A: 0}, Epsilon: 0.3, R: r},
		}
		for _, p := range pols {
			d := p.Distribution(ctx)
			if len(d) != k {
				return false
			}
			sum := 0.0
			for _, v := range d {
				if v < 0 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for every policy implementing both interfaces, ActionProb must
// agree exactly with the corresponding Distribution entry — the fast path
// must never drift from the reference.
func TestActionProberConsistency(t *testing.T) {
	r := stats.NewRand(77)
	pols := []interface {
		core.StochasticPolicy
		core.ActionProber
	}{
		Constant{A: 1},
		UniformRandom{R: r},
		&EpsilonGreedy{Base: Constant{A: 0}, Epsilon: 0.3, R: r},
	}
	for _, p := range pols {
		for k := 2; k <= 5; k++ {
			ctx := &core.Context{Features: core.Vector{0.5}, NumActions: k}
			dist := p.Distribution(ctx)
			for a := 0; a < k; a++ {
				if got := p.ActionProb(ctx, core.Action(a)); got != dist[a] {
					t.Errorf("%T k=%d a=%d: ActionProb %v != Distribution %v", p, k, a, got, dist[a])
				}
			}
			if got := p.ActionProb(ctx, core.Action(k+3)); got != 0 {
				t.Errorf("%T: out-of-range ActionProb = %v", p, got)
			}
		}
	}
}
