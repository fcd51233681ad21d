package harvestd

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lbsim"
	"repro/internal/policy"
	"repro/internal/stats"
)

// wideUpstreams is the action count of the "wide" shape shared by the
// batch-fold tests and benchmarks: the loop benchmark's wide-fold-read
// workload, 32 candidates over 8-upstream contexts.
const wideUpstreams = 8

// wideCandidates is the first n candidates of the wide shape, in a fixed
// order covering every evaluation path: Act-only (leastloaded), ActionProber
// values (uniform, const-0…7), then as many weighted-random policies with
// seeded non-dyadic weights as it takes.
func wideCandidates(n int) (names []string, pols []core.Policy) {
	r := stats.NewRand(5)
	names = []string{"leastloaded", "uniform"}
	pols = []core.Policy{lbsim.LeastLoaded{}, policy.UniformRandom{}}
	for a := 0; a < wideUpstreams; a++ {
		names = append(names, fmt.Sprintf("const-%d", a))
		pols = append(pols, policy.Constant{A: core.Action(a)})
	}
	for i := 0; len(pols) < n; i++ {
		weights := make([]float64, wideUpstreams)
		for s := range weights {
			weights[s] = 0.1 + r.Float64()
		}
		names = append(names, fmt.Sprintf("weighted-%02d", i))
		pols = append(pols, &lbsim.WeightedRandom{Weights: weights})
	}
	return names[:n], pols[:n]
}

// widePolicies is the 32 candidates of the wide shape, by name.
func widePolicies() map[string]core.Policy {
	names, pols := wideCandidates(32)
	byName := make(map[string]core.Policy, len(names))
	for i, name := range names {
		byName[name] = pols[i]
	}
	return byName
}

// wideDatapoints draws n valid datapoints over wideUpstreams upstreams with
// non-dyadic rewards and propensities, so any change in summation order
// shows up in the low bits.
func wideDatapoints(n int, seed int64) []core.Datapoint {
	r := stats.NewRand(seed)
	ds := make([]core.Datapoint, n)
	for i := range ds {
		conns := make([]int, wideUpstreams)
		for s := range conns {
			conns[s] = r.Intn(12)
		}
		p := 1.0 / wideUpstreams
		if r.Intn(5) == 0 { // occasional skew so clipping has bite
			p = 0.03
		}
		ds[i] = core.Datapoint{
			Context:    lbsim.BuildContext(conns, 0, 1),
			Action:     core.Action(r.Intn(wideUpstreams)),
			Reward:     0.1 + 0.3*r.Float64(),
			Propensity: p,
			Seq:        int64(i + 1),
		}
	}
	return ds
}

// newWideRegistry registers widePolicies on a fresh registry.
func newWideRegistry(tb testing.TB, workers int) *Registry {
	tb.Helper()
	reg, err := NewRegistry(workers, 10)
	if err != nil {
		tb.Fatal(err)
	}
	for name, pol := range widePolicies() {
		if err := reg.Register(name, pol); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// requireState fails unless the registry holds, bit for bit, the wanted
// accumulator for every policy.
func requireState(t *testing.T, what string, got *Registry, want map[string]Accum) {
	t.Helper()
	g := got.exportState()
	if len(g) != len(want) {
		t.Fatalf("%s: %d policies, want %d", what, len(g), len(want))
	}
	for name, wa := range want {
		if ga := g[name]; ga != wa {
			t.Fatalf("%s: policy %s differs\n got %+v\nwant %+v", what, name, ga, wa)
		}
	}
}

// TestFoldBatchEqualsPerRecordFold: a batch fold is the record-by-record
// fold, every Accum field bit-for-bit, at any batching of the stream. The
// reference is the pre-batch definition: per record, per policy,
// core.ActionProb into Accum.Fold.
func TestFoldBatchEqualsPerRecordFold(t *testing.T) {
	ds := wideDatapoints(1500, 3)
	want := map[string]Accum{}
	for name, pol := range widePolicies() {
		var acc Accum
		for i := range ds {
			acc.Fold(core.ActionProb(pol, &ds[i].Context, ds[i].Action),
				ds[i].Propensity, ds[i].Reward, 10, DefaultPropensityFloor)
		}
		want[name] = acc
	}
	perRecord := newWideRegistry(t, 1)
	for i := range ds {
		perRecord.Fold(0, &ds[i])
	}
	requireState(t, "Fold per record", perRecord, want)
	for _, batch := range []int{1, 2, 63, 720, len(ds)} {
		got := newWideRegistry(t, 1)
		for at := 0; at < len(ds); at += batch { // the last batch is the ragged tail
			got.FoldBatch(0, ds[at:min(at+batch, len(ds))])
		}
		requireState(t, fmt.Sprintf("batch size %d", batch), got, want)
	}
	// Uneven batch sizes, including empty ones.
	got := newWideRegistry(t, 1)
	r := stats.NewRand(9)
	for at := 0; at < len(ds); {
		n := min(r.Intn(200), len(ds)-at)
		got.FoldBatch(0, ds[at:at+n])
		at += n
	}
	requireState(t, "ragged batches", got, want)
}

// TestRegisterSnapshotsPreparedProber: Register asks a core.PreparedProber
// policy for its prober once, so what is folded is the policy as registered
// — changing a WeightedRandom's Weights afterwards changes nothing.
func TestRegisterSnapshotsPreparedProber(t *testing.T) {
	weights := []float64{3, 1, 0.5, 2, 1, 1, 4, 0.25}
	pol := &lbsim.WeightedRandom{Weights: append([]float64(nil), weights...)}
	reg, err := NewRegistry(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("weighted", pol); err != nil {
		t.Fatal(err)
	}
	pol.Weights[0] = 100

	ds := wideDatapoints(300, 7)
	reg.FoldBatch(0, ds)
	asRegistered := &lbsim.WeightedRandom{Weights: weights}
	var want Accum
	for i := range ds {
		want.Fold(asRegistered.ActionProb(&ds[i].Context, ds[i].Action),
			ds[i].Propensity, ds[i].Reward, reg.Clip(), reg.PropensityFloor())
	}
	requireState(t, "weights changed after Register", reg, map[string]Accum{"weighted": want})
}

// panicOn is a policy that panics on the records whose Seq it lists and
// always picks action 0 otherwise.
type panicOn map[int64]bool

func (p panicOn) Act(ctx *core.Context) core.Action {
	// The test appends each record's Seq to its shared features, which is
	// how a policy — handed only the context — can tell records apart.
	if p[int64(ctx.Features[len(ctx.Features)-1])] {
		panic("panicOn: poisoned record")
	}
	return 0
}

// TestFoldBatchSkipsExactlyThePanickingPair: a panic on record k costs that
// policy exactly record k — one EvalPanics, N = len−1 — and costs the other
// policies nothing.
func TestFoldBatchSkipsExactlyThePanickingPair(t *testing.T) {
	const n = 40
	ds := wideDatapoints(n, 4)
	for i := range ds { // tag each context with its Seq for panicOn
		ds[i].Context.Features = append(append(core.Vector(nil), ds[i].Context.Features...), float64(ds[i].Seq))
	}
	cases := map[string][]int64{
		"first":    {1},
		"middle":   {17},
		"last":     {n},
		"adjacent": {8, 9, 10},
		"ends":     {1, n},
	}
	for name, seqs := range cases {
		t.Run(name, func(t *testing.T) {
			bad := panicOn{}
			for _, s := range seqs {
				bad[s] = true
			}
			reg, err := NewRegistry(1, 10)
			if err != nil {
				t.Fatal(err)
			}
			for pname, pol := range map[string]core.Policy{
				"a-const": policy.Constant{A: 0}, "m-panics": bad, "z-uniform": policy.UniformRandom{},
			} {
				if err := reg.Register(pname, pol); err != nil {
					t.Fatal(err)
				}
			}
			reg.FoldBatch(0, ds)

			if got := reg.EvalPanics(); got != int64(len(seqs)) {
				t.Errorf("EvalPanics = %d, want %d", got, len(seqs))
			}
			for _, pe := range reg.Estimates(0.05) {
				want := int64(n)
				if pe.Policy == "m-panics" {
					want -= int64(len(seqs))
				}
				if pe.N != want {
					t.Errorf("%s: N = %d, want %d", pe.Policy, pe.N, want)
				}
			}
			// The panicking policy's state is the fold of the surviving records.
			var want Accum
			for i := range ds {
				if !bad[ds[i].Seq] {
					want.Fold(core.ActionProb(policy.Constant{A: 0}, &ds[i].Context, ds[i].Action),
						ds[i].Propensity, ds[i].Reward, reg.Clip(), reg.PropensityFloor())
				}
			}
			if got := reg.exportState()["m-panics"]; got != want {
				t.Errorf("panicking policy state\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestFoldBatchConcurrentWithReadersAndRegister is the batch path's -race
// workout: two workers fold batches into their own shards while readers
// pull estimates, diagnostics and full snapshots and a third goroutine
// registers policies mid-stream.
func TestFoldBatchConcurrentWithReadersAndRegister(t *testing.T) {
	reg := newWideRegistry(t, 2)
	d, err := New(Config{Workers: 2}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ds := wideDatapoints(2000, 6)
	const batch = 50

	var folders, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		folders.Add(1)
		go func(w int) {
			defer folders.Done()
			half := ds[w*len(ds)/2 : (w+1)*len(ds)/2]
			for at := 0; at < len(half); at += batch {
				reg.FoldBatch(w, half[at:at+batch])
			}
		}(w)
	}
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = reg.Estimates(0.05)
			_ = reg.Diagnostics()
			if snap := d.StateSnapshot(); len(snap.Policies) < 32 {
				t.Errorf("snapshot lost policies: %d", len(snap.Policies))
				return
			}
		}
	}()
	go func() {
		defer readers.Done()
		for i := 0; i < 20; i++ {
			if err := reg.Register(fmt.Sprintf("late-%02d", i), policy.Constant{A: core.Action(i % wideUpstreams)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	folders.Wait()
	close(stop)
	readers.Wait()

	// Every policy registered before the fold started saw every record.
	for _, pe := range reg.Estimates(0.05) {
		late := strings.HasPrefix(pe.Policy, "late-")
		if !late && pe.N != int64(len(ds)) {
			t.Errorf("%s: N = %d, want %d", pe.Policy, pe.N, len(ds))
		}
		if late && pe.N > int64(len(ds)) {
			t.Errorf("%s: N = %d exceeds the stream", pe.Policy, pe.N)
		}
	}
	if got := len(reg.Names()); got != 52 {
		t.Errorf("registered %d policies, want 52", got)
	}
}

// TestFoldBatchDoesNotAllocate pins the wide shape — 32 candidates, every
// evaluation path, 8-upstream contexts — at zero allocations per batch.
func TestFoldBatchDoesNotAllocate(t *testing.T) {
	reg := newWideRegistry(t, 1)
	ds := wideDatapoints(256, 8)
	if allocs := testing.AllocsPerRun(20, func() { reg.FoldBatch(0, ds) }); allocs != 0 {
		t.Errorf("FoldBatch allocates %v per 256-record batch, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { reg.Fold(0, &ds[0]) }); allocs != 0 {
		t.Errorf("Fold allocates %v per record, want 0", allocs)
	}
}
