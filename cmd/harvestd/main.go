// Command harvestd runs the continuous harvesting daemon: it tails
// exploration logs (netlb access logs, or the binrec records recconv packs
// from them or from a JSONL dataset) into a registry of candidate policies and serves live
// counterfactual estimates over HTTP — the paper's "harvest continuously"
// pitch as a long-running service.
//
// Usage:
//
//	harvestd [-addr HOST:PORT] [-nginx PATH,...] [-bin PATH,...]
//	         [-follow] [-strict] [-types N]
//	         [-policies SPEC] [-workers N] [-clip F] [-delta F]
//	         [-floor F] [-shard-id NAME] [-checkpoint PATH] [-checkpoint-interval D]
//	         [-debug-addr HOST:PORT] [-trace PATH]
//
// A policy SPEC is a comma-separated list of candidates to evaluate:
// "uniform" (uniform random), "leastloaded" (least-connections), and
// "constant:K" (always route to K). The daemon runs until SIGINT/SIGTERM,
// then drains in-flight lines, writes a final checkpoint (when -checkpoint
// is set), and prints the final estimates. A restart with the same
// -checkpoint restores the estimator state and counters; file sources are
// then read again from byte 0 (see the harvestd package doc), so only a
// push-fed daemon resumes exactly where it left off.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/harvestd"
	"repro/internal/lbsim"
	"repro/internal/obs"
	"repro/internal/policy"
)

func main() { daemon.Main("harvestd", run) }

// run wires flags → sources → registry → daemon, serves until ctx is
// cancelled (the SIGTERM path), then shuts down gracefully. When ready is
// non-nil the API base URL is sent on it after startup — the hook the
// integration tests use to drive a full daemon lifecycle in-process.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("harvestd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8347", "HTTP API listen address")
	nginx := fs.String("nginx", "", "comma-separated nginx-style access logs to harvest")
	bin := fs.String("bin", "", "comma-separated binrec binary record files to harvest (see recconv)")
	follow := fs.Bool("follow", false, "keep tailing nginx and bin sources as they grow")
	strict := fs.Bool("strict", false, "abort a nginx source on the first malformed line")
	types := fs.Int("types", 1, "request types in nginx logs (typed routing contexts)")
	policies := fs.String("policies", "uniform,leastloaded,constant:0",
		"candidate policies: uniform | leastloaded | constant:K")
	workers := fs.Int("workers", 0, "ingestion workers (0 = GOMAXPROCS)")
	clip := fs.Float64("clip", 10, "importance-weight cap for clipped IPS (<=0 disables)")
	delta := fs.Float64("delta", 0.05, "default interval failure probability")
	floor := fs.Float64("floor", harvestd.DefaultPropensityFloor,
		"propensity floor for estimator-health diagnostics (<=0 disables)")
	shardID := fs.String("shard-id", "", "shard name reported in fleet snapshots (empty = listen address)")
	checkpoint := fs.String("checkpoint", "", "checkpoint file (empty disables)")
	ckptEvery := fs.Duration("checkpoint-interval", 30*time.Second, "time between checkpoints")
	debugAddr := fs.String("debug-addr", "", "pprof/expvar listen address (empty disables)")
	tracePath := fs.String("trace", "", "write JSONL pipeline trace to this file (empty disables)")
	if err := daemon.ParseFlags(fs, args); err != nil {
		return err
	}

	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	reg, err := harvestd.NewRegistry(nWorkers, *clip)
	if err != nil {
		return err
	}
	if err := registerPolicies(reg, *policies); err != nil {
		return err
	}

	floorVal := *floor
	if floorVal <= 0 {
		floorVal = -1 // negative Config value disables floor accounting
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		defer func() { _ = f.Close() }()
		tracer = obs.NewTracer(f, nil)
	}

	d, err := harvestd.New(harvestd.Config{
		Workers:            nWorkers,
		Clip:               *clip,
		Delta:              *delta,
		Addr:               *addr,
		CheckpointPath:     *checkpoint,
		CheckpointInterval: *ckptEvery,
		PropensityFloor:    floorVal,
		ShardID:            *shardID,
		Tracer:             tracer,
		Logf:               daemon.Logf(stdout),
	}, reg)
	if err != nil {
		return err
	}

	debug, err := obs.StartDebug(*debugAddr)
	if err != nil {
		return err
	}
	defer debug.Close()
	if debug != nil {
		fmt.Fprintf(stdout, "harvestd: debug (pprof/expvar) on http://%s/debug/pprof/\n", debug.Addr())
	}
	for _, p := range splitPaths(*nginx) {
		d.AddSource(&harvestd.NginxSource{
			Path: p, Follow: *follow, NumTypes: *types, Strict: *strict,
		})
	}
	for _, p := range splitPaths(*bin) {
		d.AddSource(&harvestd.BinSource{Path: p, Follow: *follow})
	}

	doing := "evaluating " + strings.Join(reg.Names(), ", ")
	if err := daemon.Run(ctx, d, "harvestd", doing, stdout, ready); err != nil {
		return err
	}
	for _, pe := range d.Estimates() {
		fmt.Fprintf(stdout, "harvestd: %-14s n=%-8d snips=%.6f ± %.6f\n",
			pe.Policy, pe.N, pe.SNIPS.Value, pe.SNIPS.StdErr)
	}
	for _, err := range d.SourceErrors() {
		fmt.Fprintf(stdout, "harvestd: source error: %v\n", err)
	}
	return nil
}

// registerPolicies parses a candidate spec ("uniform,leastloaded,constant:1")
// into the registry.
func registerPolicies(reg *harvestd.Registry, spec string) error {
	items := splitPaths(spec)
	if len(items) == 0 {
		return fmt.Errorf("no candidate policies given")
	}
	for _, item := range items {
		switch {
		case item == "uniform":
			if err := reg.Register("uniform", policy.UniformRandom{}); err != nil {
				return err
			}
		case item == "leastloaded":
			if err := reg.Register("leastloaded", lbsim.LeastLoaded{}); err != nil {
				return err
			}
		case strings.HasPrefix(item, "constant:"):
			k, err := strconv.Atoi(strings.TrimPrefix(item, "constant:"))
			if err != nil || k < 0 {
				return fmt.Errorf("bad constant policy %q", item)
			}
			if err := reg.Register(fmt.Sprintf("always-%d", k), policy.Constant{A: core.Action(k)}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown policy %q (want uniform | leastloaded | constant:K)", item)
		}
	}
	return nil
}

// splitPaths splits a comma-separated flag value, dropping empties.
func splitPaths(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
