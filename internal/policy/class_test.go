package policy

import (
	"testing"

	"repro/internal/core"
)

func TestStumpClassSizeMatchesEnumeration(t *testing.T) {
	c := StumpClass{NumFeatures: 3, Cuts: []float64{0.25, 0.5, 0.75}, NumActions: 4}
	want := 3 * 3 * 4 * 4
	if c.Size() != want {
		t.Fatalf("Size = %d, want %d", c.Size(), want)
	}
	seen := 0
	lastIdx := -1
	c.Enumerate(func(idx int, p core.Policy) bool {
		if idx != lastIdx+1 {
			t.Fatalf("non-contiguous index %d after %d", idx, lastIdx)
		}
		lastIdx = idx
		seen++
		if _, ok := p.(Stump); !ok {
			t.Fatalf("member %d is %T, want Stump", idx, p)
		}
		return true
	})
	if seen != want {
		t.Errorf("enumerated %d, want %d", seen, want)
	}
}

func TestStumpClassEarlyStop(t *testing.T) {
	c := StumpClass{NumFeatures: 2, Cuts: []float64{0.5}, NumActions: 3}
	seen := 0
	c.Enumerate(func(idx int, p core.Policy) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Errorf("early stop visited %d, want 5", seen)
	}
}
