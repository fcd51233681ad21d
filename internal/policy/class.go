package policy

import "repro/internal/core"

// StumpClass enumerates all decision stumps over a feature grid:
// every (feature index, cut point, below-action, above-action) combination.
// With f features, c cuts, and k actions the class has f·c·k² members —
// easily 10^6 with modest grids, matching the paper's Fig. 2 setting.
type StumpClass struct {
	NumFeatures int
	Cuts        []float64
	NumActions  int
}

// Size returns the number of stumps in the class.
func (s StumpClass) Size() int {
	return s.NumFeatures * len(s.Cuts) * s.NumActions * s.NumActions
}

// Enumerate calls visit for each stump, with a stable index, until visit
// returns false or the class is exhausted.
func (s StumpClass) Enumerate(visit func(int, core.Policy) bool) {
	idx := 0
	for f := 0; f < s.NumFeatures; f++ {
		for _, cut := range s.Cuts {
			for below := 0; below < s.NumActions; below++ {
				for above := 0; above < s.NumActions; above++ {
					p := Stump{Idx: f, Cut: cut, Below: core.Action(below), Above: core.Action(above)}
					if !visit(idx, p) {
						return
					}
					idx++
				}
			}
		}
	}
}
