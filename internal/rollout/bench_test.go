package rollout

// Benchmarks for the controller's hot paths: one full gate evaluation (the
// pure decision function every poll runs), one state-machine transition
// (promote bookkeeping: monitor reset, transition record, share change),
// and one whole Step against a live harvestd over loopback. `make bench`
// runs these into BENCH_harvestd.json for CI trend tracking — a controller
// polling many candidates must keep the first two trivial next to the HTTP
// round-trip they ride on, and the round-trip independent of how many
// policies the daemon carries.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/abtest"
	"repro/internal/core"
	"repro/internal/harvestd"
	"repro/internal/lbsim"
	"repro/internal/policy"
)

// benchInputs builds a realistic mid-canary evaluation: both arms populated,
// monitor decided, all guards green — the longest path through evaluate.
func benchInputs(b *testing.B, cfg *Config) gateInputs {
	b.Helper()
	seq, err := abtest.NewSequentialEB(cfg.TermLo, cfg.TermHi, cfg.Delta)
	if err != nil {
		b.Fatal(err)
	}
	if err := seq.AddBatch(0, 2048, 0.5*2048, (0.05*0.05+0.25)*2048); err != nil {
		b.Fatal(err)
	}
	if err := seq.AddBatch(1, 2048, 0.8*2048, (0.05*0.05+0.64)*2048); err != nil {
		b.Fatal(err)
	}
	return gateInputs{
		Poll:  7,
		Now:   time.Unix(1700000000, 0).UTC(),
		Stage: StageCanary,
		Share: 0.05, ShareIdx: 1,
		Cand:         GateArm{Policy: "cand", N: 2048, Value: 0.8, StdErr: 0.001, Lo: 0.77, Hi: 0.83, ESSFraction: 1},
		Base:         GateArm{Policy: "base", N: 2048, Value: 0.5, StdErr: 0.001, Lo: 0.47, Hi: 0.53, ESSFraction: 1},
		StageSamples: 2048,
		StaleFor:     2 * time.Second,
		Seq:          seq,
	}
}

func BenchmarkGateEval(b *testing.B) {
	cfg := Config{Candidate: "cand", Baseline: "base", Harvest: &HTTPHarvest{BaseURL: "http://unused"}}
	if err := cfg.fillDefaults(); err != nil {
		b.Fatal(err)
	}
	in := benchInputs(b, &cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := evaluate(&cfg, in)
		if d.Outcome != OutcomePromote {
			b.Fatalf("outcome %s, want promote", d.Outcome)
		}
	}
}

func BenchmarkStateTransition(b *testing.B) {
	c, err := New(Config{Candidate: "cand", Baseline: "base", Harvest: &HTTPHarvest{BaseURL: "http://unused"}})
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(1700000000, 0).UTC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.mu.Lock()
		c.stage, c.shareIdx = StageShadow, 0
		c.transitions = c.transitions[:0]
		d := GateDecision{Outcome: OutcomePromote, Reason: "bench"}
		c.apply(&d, now)
		if d.NextStage != StageCanary {
			c.mu.Unlock()
			b.Fatalf("transitioned to %s, want canary", d.NextStage)
		}
		c.mu.Unlock()
	}
}

// BenchmarkStepHTTP measures one control cycle end to end (one op = fetch
// over loopback HTTP, gate evaluation, record) against a harvestd carrying
// 3 and 32 policies, of which the controller reads two.
func BenchmarkStepHTTP(b *testing.B) {
	for _, k := range []int{3, 32} {
		reg, err := harvestd.NewRegistry(1, 10)
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < k; p++ {
			if err := reg.Register(fmt.Sprintf("p%02d", p), policy.Constant{A: core.Action(p % 2)}); err != nil {
				b.Fatal(err)
			}
		}
		d, err := harvestd.New(harvestd.Config{Workers: 1, Addr: "127.0.0.1:0"}, reg)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		const n = 512
		for i := 0; i < n; i++ {
			dp := core.Datapoint{
				Context: lbsim.BuildContext([]int{i % 7, i % 5}, 0, 1), Action: core.Action(i % 2),
				Reward: float64(i%16) / 16, Propensity: 0.5, Seq: int64(i + 1),
			}
			if err := d.Ingest(dp); err != nil {
				b.Fatal(err)
			}
		}
		for reg.TotalN() < n {
			time.Sleep(time.Millisecond)
		}
		c, err := New(Config{
			Candidate: "p01", Baseline: "p00", MinStageSamples: 1 << 40,
			Harvest: &HTTPHarvest{BaseURL: d.URL()},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k2of%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Step(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
		if err := d.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
