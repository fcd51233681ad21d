// Package lbsim is the load-balancing substrate: a discrete-event simulator
// of the Nginx scenario in §5 of "Harvesting Randomness to Optimize
// Distributed Systems" (HotNets 2017), built around the paper's Fig. 5
// model — each server's latency is a linear function of its open
// connections, and server 2 is slower than server 1 by an additive constant:
//
//	latency_s(conns) = Base_s + Slope·conns
//
// Requests arrive as a Poisson process; a routing policy observes each
// server's open-connection count (the context) and picks a backend (the
// action); the request's latency (the reward, as a cost) is determined by
// the chosen server's load at admission, and the request holds a connection
// for exactly that long — creating the action→context feedback loop that
// breaks CB assumption A1 and with it naive off-policy evaluation (Table 2).
package lbsim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/stats"
)

// ServerParams is one backend's latency model.
type ServerParams struct {
	// Base is the unloaded latency in seconds.
	Base float64
	// Slope is the added latency per open connection, in seconds.
	Slope float64
}

// Config describes a simulated deployment.
type Config struct {
	Servers []ServerParams
	// ArrivalRate is the Poisson request rate (requests per second).
	ArrivalRate float64
	// NumRequests ends the run after this many arrivals.
	NumRequests int
	// Warmup discards the first Warmup requests from metrics and logs so
	// measurements reflect steady state.
	Warmup int
	// NumTypes enables request types (observable context beyond load):
	// each request draws a uniform type in [0, NumTypes). 0 or 1 disables.
	NumTypes int
	// Affinity[s][t] adds a latency penalty when server s handles a
	// type-t request — the "different types of requests are processed
	// differently by different servers" effect that gives CB its edge
	// over least-loaded (§5). nil means no affinities.
	Affinity [][]float64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if len(c.Servers) < 2 {
		return fmt.Errorf("lbsim: need at least 2 servers, got %d", len(c.Servers))
	}
	for i, s := range c.Servers {
		if s.Base <= 0 || s.Slope < 0 {
			return fmt.Errorf("lbsim: server %d params %+v invalid", i, s)
		}
	}
	if c.ArrivalRate <= 0 {
		return fmt.Errorf("lbsim: arrival rate %v", c.ArrivalRate)
	}
	if c.NumRequests <= 0 {
		return fmt.Errorf("lbsim: num requests %v", c.NumRequests)
	}
	if c.Warmup < 0 || c.Warmup >= c.NumRequests {
		return fmt.Errorf("lbsim: warmup %d out of range", c.Warmup)
	}
	if c.Affinity != nil {
		if len(c.Affinity) != len(c.Servers) {
			return fmt.Errorf("lbsim: affinity rows %d != servers %d", len(c.Affinity), len(c.Servers))
		}
		for s, row := range c.Affinity {
			if len(row) != c.numTypes() {
				return fmt.Errorf("lbsim: affinity row %d has %d types, want %d", s, len(row), c.numTypes())
			}
			for t, v := range row {
				if v < 0 {
					return fmt.Errorf("lbsim: negative affinity [%d][%d]", s, t)
				}
			}
		}
	}
	return nil
}

// numTypes normalizes NumTypes (0 means a single implicit type).
func (c *Config) numTypes() int {
	if c.NumTypes <= 1 {
		return 1
	}
	return c.NumTypes
}

// affinity returns the latency penalty for server s on request type t.
func (c *Config) affinity(s, t int) float64 {
	if c.Affinity == nil {
		return 0
	}
	return c.Affinity[s][t]
}

// TwoServerFig5 returns the paper's Fig. 5 setup verbatim — each server's
// latency linear in its open connections, server 2 slower by an additive
// constant — tuned so that "send to 1" evaluates around 0.3s offline but
// roughly doubles when actually deployed (the Table 2 breakage).
func TwoServerFig5() Config {
	return Config{
		Servers: []ServerParams{
			{Base: 0.20, Slope: 0.036}, // server 1
			{Base: 0.37, Slope: 0.036}, // server 2: slower by an additive constant
		},
		ArrivalRate: 20,
		NumRequests: 30000,
		Warmup:      2000,
	}
}

// Table2Config extends the Fig. 5 setup with two request types and
// per-server type affinities. This realizes the paper's explanation of why
// the CB policy beats least-loaded in Table 2: "the algorithm would learn
// how different types of requests are processed by different servers,
// something least loaded cannot do." Server 1 remains faster on average
// (preserving the send-to-1 breakage), but each server is specialized for
// one type.
func Table2Config() Config {
	return Config{
		Servers: []ServerParams{
			{Base: 0.15, Slope: 0.030}, // server 1
			{Base: 0.25, Slope: 0.030}, // server 2: slower by an additive constant
		},
		ArrivalRate: 20,
		NumRequests: 30000,
		Warmup:      2000,
		NumTypes:    2,
		Affinity: [][]float64{
			{0, 0.20}, // server 1 handles type 0 natively, pays on type 1
			{0.20, 0}, // server 2 is the opposite
		},
	}
}

// FeatureDim returns the per-action feature dimension for k servers and
// numTypes request types: [conns_s, onehot(s), onehot(s)×onehot(type)].
// The type interaction block is omitted when numTypes <= 1.
func FeatureDim(k, numTypes int) int {
	if numTypes <= 1 {
		return 1 + k
	}
	return 1 + k + k*numTypes
}

// BuildContext constructs the routing context from open-connection counts
// and the request's type. Shared features are [conns..., typeOneHot...];
// per-action features are [conns_s, onehot(s), onehot(s)×onehot(type)] so a
// single linear model can represent base latency, load slope, and per-
// server type affinity exactly. Pass numTypes <= 1 for the untyped Fig. 5
// model.
func BuildContext(conns []int, reqType, numTypes int) core.Context {
	k := len(conns)
	return fillContext(make([]float64, contextFloats(k, numTypes)), make([]core.Vector, k), conns, reqType, numTypes)
}

// BuildContextIn is BuildContext with the context's vectors carved from a:
// no heap allocation once the arena has grown to the batch's size, and the
// context is valid only until a.Reset.
func BuildContextIn(a *core.Arena, conns []int, reqType, numTypes int) core.Context {
	k := len(conns)
	floats := a.Floats(contextFloats(k, numTypes))
	clear(floats)
	return fillContext(floats, a.Rows(k), conns, reqType, numTypes)
}

// contextFloats is the number of float64s one context holds: the shared
// vector plus k per-action vectors.
func contextFloats(k, numTypes int) int {
	n := k + k*FeatureDim(k, numTypes)
	if numTypes > 1 {
		n += numTypes
	}
	return n
}

// fillContext lays a context out over one zeroed float block (shared
// vector first, then the per-action vectors, each capped at its own length
// so an append cannot run into its neighbour) and one row-header block.
func fillContext(floats []float64, rows []core.Vector, conns []int, reqType, numTypes int) core.Context {
	k := len(conns)
	typed := numTypes > 1
	sharedLen := k
	if typed {
		sharedLen += numTypes
	}
	shared := floats[:sharedLen:sharedLen]
	floats = floats[sharedLen:]
	dim := FeatureDim(k, numTypes)
	for s, c := range conns {
		shared[s] = float64(c)
		v := floats[s*dim : (s+1)*dim : (s+1)*dim]
		v[0] = float64(c)
		v[1+s] = 1
		if typed {
			v[1+k+s*numTypes+reqType] = 1
		}
		rows[s] = v
	}
	if typed {
		shared[k+reqType] = 1
	}
	return core.Context{Features: shared, ActionFeatures: rows, NumActions: k}
}

// Result summarizes one simulated deployment.
type Result struct {
	// MeanLatency / P99Latency are in seconds, post-warmup.
	MeanLatency float64
	P99Latency  float64
	// PerServer counts post-warmup requests routed to each backend.
	PerServer []int
	// Completed counts post-warmup requests measured.
	Completed int
	// Exploration holds the harvested ⟨x,a,r,p⟩ log when logging was
	// enabled (propensities from the deployed policy's Distribution, or 1
	// for deterministic policies).
	Exploration core.Dataset
}

// Run deploys a policy in the simulator and measures it online — the
// "online evaluation" column of Table 2. If logExploration is true the run
// also harvests exploration data (the paper's step 1: scavenge).
func Run(cfg Config, pol core.Policy, seed int64, logExploration bool) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pol == nil {
		return nil, fmt.Errorf("lbsim: nil policy")
	}
	var sim des.Simulator
	r := stats.NewRand(seed)
	k := len(cfg.Servers)
	conns := make([]int, k)
	perServer := make([]int, k)
	latencies := make([]float64, 0, cfg.NumRequests-cfg.Warmup)
	var expl core.Dataset

	numTypes := cfg.numTypes()
	typeRand := stats.Split(r)
	handle := func(i int) {
		reqType := 0
		if numTypes > 1 {
			reqType = typeRand.Intn(numTypes)
		}
		ctx := BuildContext(conns, reqType, numTypes)
		var p float64
		var a core.Action
		if sp, ok := pol.(core.StochasticPolicy); ok {
			dist := sp.Distribution(&ctx)
			a = core.Action(stats.Categorical(r, dist))
			if a < 0 {
				a = 0
			}
			p = dist[a]
		} else {
			a = pol.Act(&ctx)
			p = 1
		}
		if int(a) >= k {
			a = core.Action(k - 1)
		}
		lat := cfg.Servers[a].Base + cfg.Servers[a].Slope*float64(conns[a]) + cfg.affinity(int(a), reqType)
		conns[a]++
		s := int(a)
		// Departure restores the connection slot.
		if _, err := sim.After(lat, func() { conns[s]-- }); err != nil {
			panic(err) // unreachable: lat > 0
		}
		if i >= cfg.Warmup {
			latencies = append(latencies, lat)
			perServer[a]++
			if logExploration {
				expl = append(expl, core.Datapoint{
					Context:    ctx,
					Action:     a,
					Reward:     lat, // cost; minimize
					Propensity: p,
					Seq:        int64(i),
				})
			}
		}
	}
	if _, err := des.NewPoissonArrivals(&sim, stats.Split(r), cfg.ArrivalRate, cfg.NumRequests, handle); err != nil {
		return nil, err
	}
	if err := sim.RunAll(cfg.NumRequests*4 + 16); err != nil {
		return nil, fmt.Errorf("lbsim: %w", err)
	}
	if len(latencies) == 0 {
		return nil, fmt.Errorf("lbsim: no post-warmup requests measured")
	}
	p99, err := stats.Quantile(latencies, 0.99)
	if err != nil {
		return nil, err
	}
	return &Result{
		MeanLatency: stats.Mean(latencies),
		P99Latency:  p99,
		PerServer:   perServer,
		Completed:   len(latencies),
		Exploration: expl,
	}, nil
}

// LeastLoaded routes to the server with the fewest open connections,
// breaking ties toward the lower index — the classic Nginx least_conn
// policy and Table 2's heuristic baseline.
type LeastLoaded struct{}

// Act implements core.Policy.
func (LeastLoaded) Act(ctx *core.Context) core.Action {
	best := 0
	for s := 1; s < ctx.NumActions; s++ {
		if ctx.Features[s] < ctx.Features[best] {
			best = s
		}
	}
	return core.Action(best)
}

// String names the policy.
func (LeastLoaded) String() string { return "least-loaded" }

// WeightedRandom routes randomly with fixed per-server weights — the §5
// "randomize the share of traffic" exploration-coverage mitigation (in
// Nginx: randomizing the weights assigned to each server).
type WeightedRandom struct {
	Weights []float64
	R       *rand.Rand
}

// Act implements core.Policy.
func (w *WeightedRandom) Act(ctx *core.Context) core.Action {
	i := stats.Categorical(w.R, w.Weights)
	if i < 0 || i >= ctx.NumActions {
		return 0
	}
	return core.Action(i)
}

// Distribution implements core.StochasticPolicy.
func (w *WeightedRandom) Distribution(ctx *core.Context) []float64 {
	d := make([]float64, ctx.NumActions)
	total := w.positiveTotal(ctx.NumActions)
	if total == 0 {
		for i := range d {
			d[i] = 1 / float64(ctx.NumActions)
		}
		return d
	}
	for i := 0; i < ctx.NumActions && i < len(w.Weights); i++ {
		if w.Weights[i] > 0 {
			d[i] = w.Weights[i] / total
		}
	}
	return d
}

// positiveTotal sums the positive weights of the first n servers, in index
// order — the normalizer Distribution and ActionProb share, so the two agree
// to the bit.
func (w *WeightedRandom) positiveTotal(n int) float64 {
	total := 0.0
	for i := 0; i < n && i < len(w.Weights); i++ {
		if w.Weights[i] > 0 {
			total += w.Weights[i]
		}
	}
	return total
}

// ActionProb implements core.ActionProber: Distribution(ctx)[a] — the same
// normalizer, the same uniform fallback — without materializing the
// distribution.
func (w *WeightedRandom) ActionProb(ctx *core.Context, a core.Action) float64 {
	if a < 0 || int(a) >= ctx.NumActions {
		return 0
	}
	total := w.positiveTotal(ctx.NumActions)
	if total == 0 {
		return 1 / float64(ctx.NumActions)
	}
	if int(a) < len(w.Weights) && w.Weights[a] > 0 {
		return w.Weights[a] / total
	}
	return 0
}

// Prober implements core.PreparedProber: ActionProb over a snapshot of the
// weights with the normaliser of every NumActions summed once.
func (w *WeightedRandom) Prober() core.ActionProber {
	p := &weightedProber{
		weights: append([]float64(nil), w.Weights...),
		totals:  make([]float64, len(w.Weights)+1),
	}
	// positiveTotal's additions in positiveTotal's order: equal to the bit.
	for i, wt := range p.weights {
		p.totals[i+1] = p.totals[i]
		if wt > 0 {
			p.totals[i+1] += wt
		}
	}
	return p
}

// weightedProber is WeightedRandom.ActionProb with totals[n] standing in
// for positiveTotal(n).
type weightedProber struct {
	weights []float64
	totals  []float64
}

func (p *weightedProber) ActionProb(ctx *core.Context, a core.Action) float64 {
	if a < 0 || int(a) >= ctx.NumActions {
		return 0
	}
	total := p.totals[min(ctx.NumActions, len(p.weights))]
	if total == 0 {
		return 1 / float64(ctx.NumActions)
	}
	if int(a) < len(p.weights) && p.weights[a] > 0 {
		return p.weights[a] / total
	}
	return 0
}

// String names the policy.
func (w *WeightedRandom) String() string { return fmt.Sprintf("weighted-random%v", w.Weights) }

// EquilibriumLatency returns the theoretical steady-state latency of a
// single server receiving Poisson traffic at rate lambda under this latency
// model (from Little's law: T = Base/(1−Slope·λ)), or +Inf when unstable.
// Used by tests and EXPERIMENTS.md to sanity-check the simulator.
func EquilibriumLatency(s ServerParams, lambda float64) float64 {
	u := s.Slope * lambda
	if u >= 1 {
		return math.Inf(1)
	}
	return s.Base / (1 - u)
}
