package stats

import (
	"math"
	"testing"
)

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed should give same stream")
		}
	}
}

func TestSplitIndependentStreams(t *testing.T) {
	parent := NewRand(7)
	c1 := Split(parent)
	c2 := Split(parent)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Int63() == c2.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("child streams look identical (%d/100 collisions)", same)
	}
}

func TestSubstreamPure(t *testing.T) {
	// Same (root, index) → same seed and same stream prefix, regardless of
	// any other derivations in between.
	s1 := SubstreamSeed(42, 17)
	_ = SubstreamSeed(42, 18)
	_ = SubstreamSeed(99, 17)
	if s2 := SubstreamSeed(42, 17); s1 != s2 {
		t.Fatalf("SubstreamSeed not pure: %d vs %d", s1, s2)
	}
	a, b := Substream(42, 17), Substream(42, 17)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (root, index) should give same stream")
		}
	}
}

func TestSubstreamSeedsDistinct(t *testing.T) {
	// Within one root, every replicate index gets its own seed; and the
	// same index under nearby roots must not coincide either.
	seen := map[int64]int64{}
	for idx := int64(0); idx < 10000; idx++ {
		s := SubstreamSeed(1, idx)
		if prev, ok := seen[s]; ok {
			t.Fatalf("indices %d and %d collide on seed %d", prev, idx, s)
		}
		seen[s] = idx
	}
	for root := int64(0); root < 100; root++ {
		if root == 1 {
			continue
		}
		s := SubstreamSeed(root, 5)
		if prev, ok := seen[s]; ok {
			t.Fatalf("root %d index 5 collides with root 1 index %d", root, prev)
		}
	}
}

func TestSubstreamIndependentStreams(t *testing.T) {
	// Adjacent indices must look unrelated (the mix64 avalanche): their
	// streams should rarely agree value-for-value.
	c1, c2 := Substream(7, 0), Substream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Int63() == c2.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("substreams look identical (%d/100 collisions)", same)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	r := NewRand(3)
	w := []float64{1, 2, 1}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		idx := Categorical(r, w)
		if idx < 0 || idx > 2 {
			t.Fatalf("index out of range: %d", idx)
		}
		counts[idx]++
	}
	want := []float64{0.25, 0.5, 0.25}
	for i, c := range counts {
		frac := float64(c) / float64(n)
		if math.Abs(frac-want[i]) > 0.01 {
			t.Errorf("action %d frequency %v, want %v±0.01", i, frac, want[i])
		}
	}
}

func TestCategoricalDegenerate(t *testing.T) {
	r := NewRand(4)
	if Categorical(r, nil) != -1 {
		t.Error("nil weights should return -1")
	}
	if Categorical(r, []float64{0, 0}) != -1 {
		t.Error("zero weights should return -1")
	}
	if Categorical(r, []float64{-1, -2}) != -1 {
		t.Error("negative weights should return -1")
	}
	// Single positive weight always selected, negatives skipped.
	for i := 0; i < 20; i++ {
		if got := Categorical(r, []float64{0, 5, 0}); got != 1 {
			t.Fatalf("got %d, want 1", got)
		}
		if got := Categorical(r, []float64{-3, 0, 2}); got != 2 {
			t.Fatalf("got %d, want 2", got)
		}
	}
}

func TestBootstrapCICoversTruth(t *testing.T) {
	r := NewRand(7)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.NormFloat64() + 10
	}
	iv, err := MeanCI(NewRand(8), xs, 500, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(Mean(xs)) {
		t.Errorf("CI %v should contain the sample mean %v", iv, Mean(xs))
	}
	if !iv.Contains(10) {
		// Not guaranteed, but with n=500 failure probability is ~5%;
		// seeds chosen so it passes.
		t.Errorf("CI %v should contain the true mean 10 for this seed", iv)
	}
	if iv.Width() <= 0 || iv.Width() > 1 {
		t.Errorf("implausible CI width %v", iv.Width())
	}
}

func TestBootstrapEmpty(t *testing.T) {
	if _, err := Bootstrap(NewRand(1), nil, 10, Mean); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
	if _, err := MeanCI(NewRand(1), nil, 10, 0.05); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}
