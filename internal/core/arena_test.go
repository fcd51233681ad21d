package core

import "testing"

// TestArena: carved slices are disjoint and capped at their length, survive
// the arena outgrowing its backing array, and come from the same memory
// again after Reset — without allocating.
func TestArena(t *testing.T) {
	var a Arena
	if a.Floats(0) != nil || a.Rows(0) != nil {
		t.Error("a zero-length carve should be nil")
	}
	v, w := a.Floats(3), a.Floats(2)
	copy(v, Vector{1, 2, 3})
	copy(w, Vector{4, 5})
	if cap(v) != 3 || cap(w) != 2 || append(v, 9)[0] != 1 || w[0] != 4 {
		t.Errorf("carves overlap or carry spare capacity: %v (cap %d) %v (cap %d)", v, cap(v), w, cap(w))
	}
	rows := a.Rows(2)
	rows[0], rows[1] = v, w
	big := a.Floats(5000) // outgrows the first backing array
	big[0] = 7
	a.Rows(500)
	if v[2] != 3 || w[1] != 5 || rows[1][0] != 4 {
		t.Errorf("growth disturbed earlier carves: %v %v", v, w)
	}
	a.Reset()
	again := a.Floats(5000)
	if &again[0] != &big[0] {
		t.Error("Reset should hand the same memory out again")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		a.Reset()
		for i := 0; i < 100; i++ {
			a.Rows(5)[0] = a.Floats(50)
		}
	}); allocs != 0 {
		t.Errorf("%v allocations per round on a grown arena, want 0", allocs)
	}
}
