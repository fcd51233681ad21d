package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestContextValidate(t *testing.T) {
	good := Context{Features: Vector{1}, NumActions: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid context rejected: %v", err)
	}
	bad := Context{NumActions: 0}
	if err := bad.Validate(); err == nil {
		t.Error("0 actions should fail")
	}
	mismatch := Context{NumActions: 2, ActionFeatures: []Vector{{1}}}
	if err := mismatch.Validate(); err == nil {
		t.Error("action-feature length mismatch should fail")
	}
}

func TestFeaturesFor(t *testing.T) {
	shared := Context{Features: Vector{7}, NumActions: 2}
	if got := shared.FeaturesFor(1); got[0] != 7 {
		t.Errorf("shared features: %v", got)
	}
	perAction := Context{
		Features:       Vector{7},
		ActionFeatures: []Vector{{1}, {2}},
		NumActions:     2,
	}
	if got := perAction.FeaturesFor(1); got[0] != 2 {
		t.Errorf("per-action features: %v", got)
	}
}

func TestDatapointValidate(t *testing.T) {
	ok := Datapoint{
		Context:    Context{NumActions: 3},
		Action:     1,
		Reward:     0.5,
		Propensity: 0.3,
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid datapoint rejected: %v", err)
	}
	for name, d := range map[string]Datapoint{
		"action too big":  {Context: Context{NumActions: 3}, Action: 3, Propensity: 0.5},
		"action negative": {Context: Context{NumActions: 3}, Action: -1, Propensity: 0.5},
		"zero propensity": {Context: Context{NumActions: 3}, Action: 0, Propensity: 0},
		"p > 1":           {Context: Context{NumActions: 3}, Action: 0, Propensity: 1.5},
		"NaN reward":      {Context: Context{NumActions: 3}, Action: 0, Propensity: 0.5, Reward: math.NaN()},
		"Inf reward":      {Context: Context{NumActions: 3}, Action: 0, Propensity: 0.5, Reward: math.Inf(1)},
	} {
		if err := d.Validate(); err == nil {
			t.Errorf("%s should fail validation", name)
		}
	}
}

func TestDatasetValidateReportsIndex(t *testing.T) {
	ds := Dataset{
		{Context: Context{NumActions: 2}, Action: 0, Propensity: 0.5},
		{Context: Context{NumActions: 2}, Action: 0, Propensity: 0}, // bad
	}
	err := ds.Validate()
	if err == nil {
		t.Fatal("should fail")
	}
	if want := "datapoint 1"; err.Error()[:len(want)] != want {
		t.Errorf("error should name the index: %v", err)
	}
}

func TestMinPropensityAndRewardRange(t *testing.T) {
	if (Dataset{}).MinPropensity() != 0 {
		t.Error("empty dataset min propensity should be 0")
	}
	ds := Dataset{
		{Propensity: 0.5, Reward: 3},
		{Propensity: 0.1, Reward: -1},
		{Propensity: 0.9, Reward: 7},
	}
	if got := ds.MinPropensity(); got != 0.1 {
		t.Errorf("MinPropensity = %v", got)
	}
	lo, hi := ds.RewardRange()
	if lo != -1 || hi != 7 {
		t.Errorf("RewardRange = %v, %v", lo, hi)
	}
	lo, hi = (Dataset{}).RewardRange()
	if lo != 0 || hi != 0 {
		t.Error("empty RewardRange should be 0,0")
	}
}

type fixedStochastic struct {
	dist []float64
}

func (f fixedStochastic) Act(ctx *Context) Action {
	best := 0
	for i, p := range f.dist {
		if p > f.dist[best] {
			best = i
		}
	}
	return Action(best)
}

func (f fixedStochastic) Distribution(ctx *Context) []float64 { return f.dist }

func TestActionProb(t *testing.T) {
	ctx := &Context{NumActions: 3}
	det := PolicyFunc(func(*Context) Action { return 2 })
	if p := ActionProb(det, ctx, 2); p != 1 {
		t.Errorf("matching deterministic: %v", p)
	}
	if p := ActionProb(det, ctx, 0); p != 0 {
		t.Errorf("non-matching deterministic: %v", p)
	}
	st := fixedStochastic{dist: []float64{0.2, 0.3, 0.5}}
	if p := ActionProb(st, ctx, 1); p != 0.3 {
		t.Errorf("stochastic: %v", p)
	}
	if p := ActionProb(st, ctx, 5); p != 0 {
		t.Errorf("out-of-range action: %v", p)
	}
}

func TestTrajectoryReturn(t *testing.T) {
	tr := Trajectory{{Reward: 1}, {Reward: 2}, {Reward: 4}}
	if got := tr.Return(1); got != 7 {
		t.Errorf("undisc return = %v", got)
	}
	if got := tr.Return(0.5); got != 1+1+1 {
		t.Errorf("disc return = %v, want 3", got)
	}
	if got := (Trajectory{}).Return(1); got != 0 {
		t.Errorf("empty return = %v", got)
	}
}

func TestSplitTrajectories(t *testing.T) {
	ds := Dataset{
		{Tag: "b", Seq: 2, Reward: 20},
		{Tag: "a", Seq: 1, Reward: 1},
		{Tag: "b", Seq: 1, Reward: 10},
		{Tag: "", Seq: 0, Reward: 99},
		{Tag: "a", Seq: 2, Reward: 2},
	}
	trs := SplitTrajectories(ds)
	if len(trs) != 3 {
		t.Fatalf("got %d trajectories, want 3", len(trs))
	}
	// First-appearance order: b, a, then singleton.
	if trs[0][0].Reward != 10 || trs[0][1].Reward != 20 {
		t.Errorf("trajectory b mis-sorted: %+v", trs[0])
	}
	if trs[1][0].Reward != 1 || trs[1][1].Reward != 2 {
		t.Errorf("trajectory a mis-sorted: %+v", trs[1])
	}
	if len(trs[2]) != 1 || trs[2][0].Reward != 99 {
		t.Errorf("singleton: %+v", trs[2])
	}
	flat := Flatten(trs)
	if len(flat) != len(ds) {
		t.Errorf("Flatten lost data: %d != %d", len(flat), len(ds))
	}
}

func TestImportanceWeight(t *testing.T) {
	cases := []struct {
		pi, p  float64
		want   float64
		wantOK bool
	}{
		{0.5, 0.25, 2, true},
		{0, 0.5, 0, true},
		{1, 1, 1, true},
		{0.5, 0, 0, false},
		{0.5, -0.1, 0, false},
		{0.5, math.NaN(), 0, false},
	}
	for _, c := range cases {
		w, ok := ImportanceWeight(c.pi, c.p)
		if w != c.want || ok != c.wantOK {
			t.Errorf("ImportanceWeight(%v, %v) = (%v, %v), want (%v, %v)",
				c.pi, c.p, w, ok, c.want, c.wantOK)
		}
	}
}

// Property: ok exactly when p > 0, the weight is pi/p in that case, and a
// rejected datapoint contributes a hard zero (never NaN/Inf) to any sum it
// accidentally reaches.
func TestImportanceWeightGate(t *testing.T) {
	f := func(pi, p float64) bool {
		w, ok := ImportanceWeight(pi, p)
		if ok != (p > 0) {
			return false
		}
		if !ok {
			return w == 0
		}
		return w == pi/p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
