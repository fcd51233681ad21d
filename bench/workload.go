package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/harvestd"
	"repro/internal/harvester/binrec"
	"repro/internal/lbsim"
	"repro/internal/policy"
	"repro/internal/stats"
)

// A workload is one set of inputs. Every run has the same two phases — a
// node catching up on a backlog at full speed, then the live loop serving
// requests and gating on them — so every end-to-end metric is measured on
// every workload; the workloads differ in which layer the input loads.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	upstreams int    // width of the routing context, and of the live proxy
	format    string // backlog encoding: "bin" (binrec) or "nginx" (access-log text)
	tailFile  bool   // backlog is a file tailed in follow mode, not an in-memory reader
	blockLog2 int    // records in the generated block, as a power of two
	replays   int    // times the block is replayed in one catch-up rep
	wide      bool   // 32 policies instead of the narrow set
}

var workloads = []workload{
	{Name: "bin-fold",
		Why:       "binrec backlog, 3 policies: decode is cheap, so queue hand-off and Registry.Fold carry the catch-up; a batch fold shows here",
		upstreams: 2, format: "bin", blockLog2: 16, replays: 16},
	{Name: "nginx-parse",
		Why:       "the same records as access-log text: the line parser carries the catch-up and fold under a tenth; a parser change shows here and not on bin-fold",
		upstreams: 2, format: "nginx", blockLog2: 16, replays: 1},
	{Name: "wide-fold-read",
		Why:       "8 upstreams, 32 policies: policy evaluation and wide contexts carry the fold, snapshots are 10x larger, so pull and read costs show",
		upstreams: 8, format: "bin", blockLog2: 15, replays: 2, wide: true},
	{Name: "closed-loop",
		Why:       "the deployed shape: one access log tailed in follow mode, only the two rollout arms registered; ingest is the file tail, not a reader",
		upstreams: 2, format: "nginx", tailFile: true, blockLog2: 16, replays: 1},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// The controller in the live phase gates candidate against baseline, so
// every workload registers both.
const (
	candidateName = "leastloaded"
	baselineName  = "uniform"
)

type namedPolicy struct {
	name string
	pol  core.Policy
}

// policies returns the workload's candidate set. Weighted-random weights
// are positive integers summing to 64, so every action probability — and
// with propensity 1/8 every importance weight — is dyadic.
func (w *workload) policies(seed int64) []namedPolicy {
	ps := []namedPolicy{
		{candidateName, lbsim.LeastLoaded{}},
		{baselineName, policy.UniformRandom{}},
	}
	switch {
	case w.wide:
		for a := 0; a < w.upstreams; a++ {
			ps = append(ps, namedPolicy{"const-" + strconv.Itoa(a), policy.Constant{A: core.Action(a)}})
		}
		rng := stats.Substream(seed, 1)
		for i := 0; len(ps) < 32; i++ {
			weights := make([]float64, w.upstreams)
			for s := range weights {
				weights[s] = 1
			}
			for left := 64 - w.upstreams; left > 0; left-- {
				weights[rng.Intn(w.upstreams)]++
			}
			ps = append(ps, namedPolicy{fmt.Sprintf("weighted-%02d", i), &lbsim.WeightedRandom{Weights: weights}})
		}
	case !w.tailFile:
		ps = append(ps, namedPolicy{"const-0", policy.Constant{A: 0}})
	}
	return ps
}

// newRegistry registers the policies on a fresh registry sharded for the
// given worker count, with the importance-weight clip every workload uses.
func newRegistry(ps []namedPolicy, workers int) (*harvestd.Registry, error) {
	reg, err := harvestd.NewRegistry(workers, clip)
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		if err := reg.Register(p.name, p.pol); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

const clip = 10

// block is one generated set of records in the three forms the benchmark
// feeds the program: datapoints (oracle and probes), a binrec stream split
// into its header and header-less segments (so it can be replayed), and
// netlb access-log text.
type block struct {
	pts     core.Dataset
	binHdr  []byte
	binSegs []byte
	lines   []byte
}

// genBlock draws n records over k upstreams. Everything is dyadic so sums
// do not depend on fold order: propensity 1/k from uniform routing, reward
// on the 1/64 grid (which rt=%.6f prints exactly), rising with the chosen
// upstream's load so the policies' values differ.
func genBlock(seed int64, n, k int) (*block, error) {
	rng := stats.Substream(seed, 0)
	b := &block{pts: make(core.Dataset, n)}
	var bin, text bytes.Buffer
	if _, err := binrec.NewEncoder(&bin); err != nil { // writes the stream header at once
		return nil, err
	}
	b.binHdr = append([]byte(nil), bin.Bytes()...)
	bin.Reset()
	enc := binrec.NewAppendEncoder(&bin)
	conns := make([]int, k)
	connStrs := make([]string, k)
	prop := 1 / float64(k)
	for i := range b.pts {
		for s := range conns {
			conns[s] = rng.Intn(8)
			connStrs[s] = strconv.Itoa(conns[s])
		}
		a := rng.Intn(k)
		reward := float64(1+4*conns[a]+rng.Intn(32)) / 64
		b.pts[i] = core.Datapoint{
			Context:    lbsim.BuildContext(conns, 0, 1),
			Action:     core.Action(a),
			Reward:     reward,
			Propensity: prop,
			Seq:        int64(i + 1),
		}
		if err := enc.Write(&b.pts[i]); err != nil {
			return nil, err
		}
		fmt.Fprintf(&text, "127.0.0.1:%d - - [30/Sep/2026:12:00:00 +0000] \"GET /r HTTP/1.1\" 200 64 \"-\" \"loopbench\" rt=%.6f upstream=%d conns=%s prop=%.6f\n",
			40000+i%20000, reward, a, strings.Join(connStrs, "|"), prop)
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	b.binSegs = bin.Bytes()
	b.lines = text.Bytes()
	return b, nil
}
