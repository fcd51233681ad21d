package lbsim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ope"
	"repro/internal/policy"
	"repro/internal/stats"
)

func TestConfigValidate(t *testing.T) {
	good := TwoServerFig5()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := map[string]func(*Config){
		"one server":    func(c *Config) { c.Servers = c.Servers[:1] },
		"zero base":     func(c *Config) { c.Servers[0].Base = 0 },
		"neg slope":     func(c *Config) { c.Servers[1].Slope = -1 },
		"zero rate":     func(c *Config) { c.ArrivalRate = 0 },
		"zero requests": func(c *Config) { c.NumRequests = 0 },
		"warmup >= n":   func(c *Config) { c.Warmup = c.NumRequests },
	}
	for name, mutate := range cases {
		c := TwoServerFig5()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s should fail validation", name)
		}
	}
}

func TestRunValidatesInput(t *testing.T) {
	cfg := TwoServerFig5()
	if _, err := Run(cfg, nil, 1, false); err == nil {
		t.Error("nil policy should fail")
	}
	bad := cfg
	bad.ArrivalRate = -1
	if _, err := Run(bad, LeastLoaded{}, 1, false); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestRandomRoutingSplitsEvenly(t *testing.T) {
	cfg := TwoServerFig5()
	cfg.NumRequests = 20000
	res, err := Run(cfg, policy.UniformRandom{R: stats.NewRand(1)}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	total := res.PerServer[0] + res.PerServer[1]
	frac := float64(res.PerServer[0]) / float64(total)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("server 1 fraction = %v, want ≈0.5", frac)
	}
	if res.Completed != total {
		t.Errorf("Completed %d != per-server total %d", res.Completed, total)
	}
}

func TestRandomRoutingNearTheory(t *testing.T) {
	cfg := TwoServerFig5()
	cfg.NumRequests = 40000
	res, err := Run(cfg, policy.UniformRandom{R: stats.NewRand(3)}, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	half := cfg.ArrivalRate / 2
	want := (EquilibriumLatency(cfg.Servers[0], half) + EquilibriumLatency(cfg.Servers[1], half)) / 2
	if math.Abs(res.MeanLatency-want)/want > 0.15 {
		t.Errorf("random mean latency = %v, theory ≈ %v", res.MeanLatency, want)
	}
}

func TestSendToOneOverloads(t *testing.T) {
	cfg := TwoServerFig5()
	cfg.NumRequests = 40000
	random, err := Run(cfg, policy.UniformRandom{R: stats.NewRand(5)}, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	sendTo1, err := Run(cfg, policy.Constant{A: 0}, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	// Deployed send-to-1 should be much worse than random (paper: 0.70 vs 0.44).
	if sendTo1.MeanLatency < random.MeanLatency*1.3 {
		t.Errorf("send-to-1 online %v should be ≫ random %v", sendTo1.MeanLatency, random.MeanLatency)
	}
	want := EquilibriumLatency(cfg.Servers[0], cfg.ArrivalRate)
	if math.Abs(sendTo1.MeanLatency-want)/want > 0.2 {
		t.Errorf("send-to-1 latency = %v, theory ≈ %v", sendTo1.MeanLatency, want)
	}
}

func TestLeastLoadedBeatsRandom(t *testing.T) {
	cfg := TwoServerFig5()
	cfg.NumRequests = 30000
	random, err := Run(cfg, policy.UniformRandom{R: stats.NewRand(8)}, 9, false)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := Run(cfg, LeastLoaded{}, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if ll.MeanLatency >= random.MeanLatency {
		t.Errorf("least-loaded %v should beat random %v", ll.MeanLatency, random.MeanLatency)
	}
}

func TestExplorationLogging(t *testing.T) {
	cfg := TwoServerFig5()
	cfg.NumRequests = 5000
	cfg.Warmup = 500
	res, err := Run(cfg, policy.UniformRandom{R: stats.NewRand(11)}, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exploration) != cfg.NumRequests-cfg.Warmup {
		t.Fatalf("logged %d datapoints, want %d", len(res.Exploration), cfg.NumRequests-cfg.Warmup)
	}
	if err := res.Exploration.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range res.Exploration {
		d := &res.Exploration[i]
		if d.Propensity != 0.5 {
			t.Fatalf("propensity = %v, want 0.5", d.Propensity)
		}
		if d.Reward <= 0 {
			t.Fatalf("latency reward %v should be positive", d.Reward)
		}
		if len(d.Context.ActionFeatures) != 2 {
			t.Fatalf("action features missing")
		}
	}
}

func TestDeterministicPolicyLogsPropensityOne(t *testing.T) {
	cfg := TwoServerFig5()
	cfg.NumRequests = 2000
	cfg.Warmup = 100
	res, err := Run(cfg, LeastLoaded{}, 13, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Exploration {
		if res.Exploration[i].Propensity != 1 {
			t.Fatalf("deterministic policy propensity = %v", res.Exploration[i].Propensity)
		}
	}
}

func TestTable2BreakageOfflineVsOnline(t *testing.T) {
	// The paper's Table 2 in miniature: IPS on random-routing exploration
	// data estimates "send to 1" as *better* than random, but deploying it
	// is far worse. This is the A1 violation demonstration.
	cfg := TwoServerFig5()
	cfg.NumRequests = 30000
	logRun, err := Run(cfg, policy.UniformRandom{R: stats.NewRand(14)}, 15, true)
	if err != nil {
		t.Fatal(err)
	}
	est, err := (ope.IPS{}).Estimate(policy.Constant{A: 0}, logRun.Exploration)
	if err != nil {
		t.Fatal(err)
	}
	online, err := Run(cfg, policy.Constant{A: 0}, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value >= logRun.MeanLatency {
		t.Errorf("offline estimate %v should look better (lower) than random %v", est.Value, logRun.MeanLatency)
	}
	if online.MeanLatency < 1.8*est.Value {
		t.Errorf("online %v should be ≫ offline estimate %v (breakage factor ≥1.8)", online.MeanLatency, est.Value)
	}
}

func TestWeightedRandom(t *testing.T) {
	w := &WeightedRandom{Weights: []float64{3, 1}, R: stats.NewRand(17)}
	ctx := BuildContext([]int{0, 0}, 0, 1)
	d := w.Distribution(&ctx)
	if math.Abs(d[0]-0.75) > 1e-12 || math.Abs(d[1]-0.25) > 1e-12 {
		t.Errorf("distribution = %v", d)
	}
	counts := [2]int{}
	for i := 0; i < 20000; i++ {
		counts[w.Act(&ctx)]++
	}
	if math.Abs(float64(counts[0])/20000-0.75) > 0.02 {
		t.Errorf("empirical split %v", counts)
	}
	// Degenerate weights fall back to uniform distribution.
	z := &WeightedRandom{Weights: []float64{0, 0}, R: stats.NewRand(18)}
	d = z.Distribution(&ctx)
	if d[0] != 0.5 || d[1] != 0.5 {
		t.Errorf("zero-weight fallback = %v", d)
	}
}

// TestWeightedRandomActionProbMatchesDistribution is the differential test
// for the allocation-free fast path: bit-equal to Distribution(ctx)[a] over
// seeded weights with zero and negative entries and len(Weights) on either
// side of NumActions, 0 outside the action set, and no allocation.
func TestWeightedRandomActionProbMatchesDistribution(t *testing.T) {
	var _ core.ActionProber = (*WeightedRandom)(nil)
	r := stats.NewRand(41)
	for trial := 0; trial < 500; trial++ {
		weights := make([]float64, r.Intn(11))
		for i := range weights {
			switch r.Intn(4) {
			case 0: // stays zero
			case 1:
				weights[i] = -r.Float64()
			default:
				weights[i] = 10 * r.Float64()
			}
		}
		if trial%50 == 0 { // total == 0: the uniform fallback
			for i := range weights {
				weights[i] = -float64(i % 2)
			}
		}
		w := &WeightedRandom{Weights: weights}
		ctx := BuildContext(make([]int, 1+r.Intn(10)), 0, 1)
		dist := w.Distribution(&ctx)
		for a := 0; a < ctx.NumActions; a++ {
			if got := w.ActionProb(&ctx, core.Action(a)); math.Float64bits(got) != math.Float64bits(dist[a]) {
				t.Fatalf("weights %v, %d actions: ActionProb(%d) = %v, Distribution = %v",
					weights, ctx.NumActions, a, got, dist[a])
			}
		}
		for _, a := range []core.Action{-1, core.Action(ctx.NumActions), core.Action(ctx.NumActions + 3)} {
			if got := w.ActionProb(&ctx, a); got != 0 {
				t.Fatalf("ActionProb(%d) outside %d actions = %v, want 0", a, ctx.NumActions, got)
			}
		}
	}

	w := &WeightedRandom{Weights: []float64{3, 0, -1, 2.5, 1, 1, 1, 1}}
	ctx := BuildContext(make([]int, 8), 0, 1)
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() {
		for a := 0; a < 8; a++ {
			sink += core.ActionProb(w, &ctx, core.Action(a))
		}
	}); allocs != 0 {
		t.Errorf("ActionProb allocates %v per run, want 0", allocs)
	}
	_ = sink
}

// TestWeightedRandomProberMatchesActionProb: the prober core.ProberFor gets
// from a WeightedRandom is ActionProb — and so Distribution(ctx)[a] — bit
// for bit, for every NumActions from 0 to past the weights and every action
// from −1 to NumActions, whatever the weights' signs; and it is a snapshot:
// changing Weights afterwards moves ActionProb, not the prober.
func TestWeightedRandomProberMatchesActionProb(t *testing.T) {
	var _ core.PreparedProber = (*WeightedRandom)(nil)
	for name, weights := range map[string][]float64{
		"positive": {3, 1, 0.7, 2.5, 1e-3, 10, 0.1},
		"zeros":    {0, 2, 0, 0.3, 5, 0},
		"negative": {-1, 4, 0.25, -3, 0, 6},
		"all-zero": {0, 0, 0, 0},
		"non-pos":  {-1, 0, -2},
		"nan":      {1, math.NaN(), 2},
		"empty":    {},
	} {
		w := &WeightedRandom{Weights: weights}
		prober := core.ProberFor(w)
		if _, direct := prober.(*WeightedRandom); direct {
			t.Fatalf("%s: ProberFor returned the policy itself, not its prepared prober", name)
		}
		for n := 0; n <= len(weights)+2; n++ {
			ctx := core.Context{NumActions: n}
			dist := w.Distribution(&ctx)
			for a := core.Action(-1); int(a) <= n; a++ {
				want := w.ActionProb(&ctx, a)
				if got := prober.ActionProb(&ctx, a); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %v, %d actions: prober(%d) = %v, ActionProb = %v", name, weights, n, a, got, want)
				}
				if a >= 0 && int(a) < n && math.Float64bits(dist[a]) != math.Float64bits(want) {
					t.Fatalf("%s %v, %d actions: Distribution[%d] = %v, ActionProb = %v", name, weights, n, a, dist[a], want)
				}
			}
		}
	}

	w := &WeightedRandom{Weights: []float64{3, 1}}
	prober := core.ProberFor(w)
	ctx := core.Context{NumActions: 2}
	w.Weights[0] = 1
	if got := prober.ActionProb(&ctx, 0); got != 0.75 {
		t.Errorf("prober after Weights changed = %v, want the snapshot's 0.75", got)
	}
	if got := w.ActionProb(&ctx, 0); got != 0.5 {
		t.Errorf("ActionProb after Weights changed = %v, want 0.5", got)
	}
}

func TestBuildContext(t *testing.T) {
	ctx := BuildContext([]int{3, 7}, 0, 1)
	if ctx.NumActions != 2 {
		t.Fatalf("NumActions = %d", ctx.NumActions)
	}
	if ctx.Features[0] != 3 || ctx.Features[1] != 7 {
		t.Errorf("shared features = %v", ctx.Features)
	}
	if ctx.ActionFeatures[0][0] != 3 || ctx.ActionFeatures[0][1] != 1 || ctx.ActionFeatures[0][2] != 0 {
		t.Errorf("af[0] = %v", ctx.ActionFeatures[0])
	}
	if ctx.ActionFeatures[1][0] != 7 || ctx.ActionFeatures[1][2] != 1 {
		t.Errorf("af[1] = %v", ctx.ActionFeatures[1])
	}
	if err := ctx.Validate(); err != nil {
		t.Fatal(err)
	}
}

// buildContextPerRow is BuildContext as it was before it laid the vectors
// out over one block — a make per vector — kept as the oracle.
func buildContextPerRow(conns []int, reqType, numTypes int) core.Context {
	k := len(conns)
	typed := numTypes > 1
	sharedLen := k
	if typed {
		sharedLen += numTypes
	}
	shared := make(core.Vector, sharedLen)
	af := make([]core.Vector, k)
	for s := 0; s < k; s++ {
		shared[s] = float64(conns[s])
		v := make(core.Vector, FeatureDim(k, numTypes))
		v[0] = float64(conns[s])
		v[1+s] = 1
		if typed {
			v[1+k+s*numTypes+reqType] = 1
		}
		af[s] = v
	}
	if typed {
		shared[k+reqType] = 1
	}
	return core.Context{Features: shared, ActionFeatures: af, NumActions: k}
}

// TestBuildContextOneBlock: the block layout changes where the vectors
// live, not what they hold; every vector is capped at its own length, so
// appending to one cannot write into the next; a context costs two
// allocations whatever the upstream count; and BuildContextIn builds the
// same context into an arena whose previous contents must not show.
func TestBuildContextOneBlock(t *testing.T) {
	var arena core.Arena
	for _, k := range []int{0, 1, 2, 8} {
		for _, numTypes := range []int{0, 1, 3} {
			conns := make([]int, k)
			for s := range conns {
				conns[s] = 3*s + 1
			}
			reqType := max(numTypes-1, 0)
			want := buildContextPerRow(conns, reqType, numTypes)
			got := BuildContext(conns, reqType, numTypes)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d types=%d:\n got  %+v\n want %+v", k, numTypes, got, want)
			}
			for s, row := range got.ActionFeatures {
				if cap(row) != len(row) || cap(got.Features) != len(got.Features) {
					t.Fatalf("k=%d types=%d: row %d has spare capacity into its neighbour", k, numTypes, s)
				}
			}
			if k == 0 {
				continue
			}
			if allocs := testing.AllocsPerRun(50, func() { BuildContext(conns, reqType, numTypes) }); allocs != 2 {
				t.Errorf("k=%d types=%d: %v allocations per context, want 2", k, numTypes, allocs)
			}
			// Dirty the arena, then build over the dirt.
			arena.Reset()
			dirt := arena.Floats(4096)
			for i := range dirt {
				dirt[i] = -1
			}
			arena.Reset()
			first := BuildContextIn(&arena, conns, reqType, numTypes)
			second := BuildContextIn(&arena, conns, 0, numTypes)
			if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(second, buildContextPerRow(conns, 0, numTypes)) {
				t.Fatalf("k=%d types=%d: arena-built contexts differ:\n %+v\n %+v\n want %+v", k, numTypes, first, second, want)
			}
		}
	}
	conns := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if allocs := testing.AllocsPerRun(50, func() {
		arena.Reset()
		BuildContextIn(&arena, conns, 1, 3)
	}); allocs != 0 {
		t.Errorf("%v allocations per arena-built context, want 0", allocs)
	}
}

func TestEquilibriumLatency(t *testing.T) {
	s := ServerParams{Base: 0.2, Slope: 0.04}
	if got := EquilibriumLatency(s, 0); got != 0.2 {
		t.Errorf("no load: %v", got)
	}
	if got := EquilibriumLatency(s, 12.5); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("half load: %v, want 0.4", got)
	}
	if !math.IsInf(EquilibriumLatency(s, 25), 1) {
		t.Error("at capacity should be +Inf")
	}
}

func TestLeastLoadedTieBreak(t *testing.T) {
	ctx := BuildContext([]int{2, 2}, 0, 1)
	if got := (LeastLoaded{}).Act(&ctx); got != 0 {
		t.Errorf("tie should go to server 0, got %d", got)
	}
	ctx = BuildContext([]int{5, 2}, 0, 1)
	if got := (LeastLoaded{}).Act(&ctx); got != 1 {
		t.Errorf("want 1, got %d", got)
	}
}

func TestRunDeterministicGivenSeeds(t *testing.T) {
	cfg := TwoServerFig5()
	cfg.NumRequests = 3000
	a, err := Run(cfg, policy.UniformRandom{R: stats.NewRand(20)}, 21, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, policy.UniformRandom{R: stats.NewRand(20)}, 21, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanLatency != b.MeanLatency || a.P99Latency != b.P99Latency {
		t.Error("same seeds should reproduce identical runs")
	}
}

func TestCBPolicyBeatsLeastLoaded(t *testing.T) {
	// §5: "CB is still able to optimize a good policy from the exploration
	// data and outperform least loaded" — the CB policy learns each
	// server's latency model and greedily picks the lowest predicted
	// latency, which accounts for server 2's additive constant that
	// least-loaded ignores.
	cfg := Table2Config()
	cfg.NumRequests = 30000
	logRun, err := Run(cfg, policy.UniformRandom{R: stats.NewRand(22)}, 23, true)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := FitCBPolicy(logRun.Exploration)
	if err != nil {
		t.Fatal(err)
	}
	cbRes, err := Run(cfg, cb, 24, false)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := Run(cfg, LeastLoaded{}, 25, false)
	if err != nil {
		t.Fatal(err)
	}
	if cbRes.MeanLatency >= ll.MeanLatency {
		t.Errorf("CB %v should beat least-loaded %v", cbRes.MeanLatency, ll.MeanLatency)
	}
}

func TestTypedContextShape(t *testing.T) {
	ctx := BuildContext([]int{3, 7}, 1, 2)
	// Shared: [conns0, conns1, typeOneHot0, typeOneHot1].
	if len(ctx.Features) != 4 || ctx.Features[3] != 1 || ctx.Features[2] != 0 {
		t.Errorf("shared features = %v", ctx.Features)
	}
	// Per-action: [conns_s, onehot(2), onehot(s)×onehot(type)(4)].
	if len(ctx.ActionFeatures[0]) != FeatureDim(2, 2) {
		t.Fatalf("af dim = %d, want %d", len(ctx.ActionFeatures[0]), FeatureDim(2, 2))
	}
	// Server 0, type 1 → index 1+2+0*2+1 = 4.
	if ctx.ActionFeatures[0][4] != 1 {
		t.Errorf("af[0] = %v", ctx.ActionFeatures[0])
	}
	// Server 1, type 1 → index 1+2+1*2+1 = 6.
	if ctx.ActionFeatures[1][6] != 1 {
		t.Errorf("af[1] = %v", ctx.ActionFeatures[1])
	}
}

func TestTable2ConfigValid(t *testing.T) {
	cfg := Table2Config()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Affinity shape mismatches must be rejected.
	bad := Table2Config()
	bad.Affinity = bad.Affinity[:1]
	if err := bad.Validate(); err == nil {
		t.Error("affinity row count mismatch should fail")
	}
	bad2 := Table2Config()
	bad2.Affinity[0] = []float64{0}
	if err := bad2.Validate(); err == nil {
		t.Error("affinity type count mismatch should fail")
	}
	bad3 := Table2Config()
	bad3.Affinity[0][0] = -1
	if err := bad3.Validate(); err == nil {
		t.Error("negative affinity should fail")
	}
}

func TestAffinityRaisesLatencyForMismatchedType(t *testing.T) {
	cfg := Table2Config()
	cfg.NumRequests = 10000
	cfg.Warmup = 1000
	res, err := Run(cfg, policy.UniformRandom{R: stats.NewRand(30)}, 31, true)
	if err != nil {
		t.Fatal(err)
	}
	// Average latency of (server 0, type 1) datapoints should exceed
	// (server 0, type 0) by roughly the affinity penalty.
	var match, mismatch stats.Welford
	for i := range res.Exploration {
		d := &res.Exploration[i]
		if d.Action != 0 {
			continue
		}
		// Type one-hot lives at shared indices [2,3].
		if d.Context.Features[2] == 1 {
			match.Add(d.Reward)
		} else {
			mismatch.Add(d.Reward)
		}
	}
	diff := mismatch.Mean() - match.Mean()
	if math.Abs(diff-0.20) > 0.03 {
		t.Errorf("type penalty = %v, want ≈0.20", diff)
	}
}
