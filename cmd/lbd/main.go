// Command lbd runs the live HTTP load-balancing prototype: a set of
// backends whose service time grows with in-flight requests, fronted by a
// reverse proxy with a pluggable routing policy writing an Nginx-style
// access log — the harvestable system of the paper's Nginx scenario.
//
// Usage:
//
//	lbd [-backends N] [-policy random|leastloaded|sendto0] [-log PATH]
//	    [-requests N] [-rate R] [-metrics-addr HOST:PORT]
//	    [-canary random|leastloaded|sendto0] [-canary-share F]
//	    [-admin-addr HOST:PORT] [-debug-addr HOST:PORT]
//
// With -requests > 0 the command generates that much load itself, prints
// the measured latency, and exits; with -requests 0 it serves until
// interrupted, printing the proxy address for external clients.
//
// With -canary set, routing goes through a policy.DynamicBlend: the canary
// policy receives -canary-share of decisions (default 0 = shadow) and the
// -policy incumbent the rest, with the exact mixture distribution logged so
// the canary stays fully harvestable at any share. -admin-addr exposes the
// share for a rollout controller: GET /share reports it, POST /share with
// {"share": x} retunes it live.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/lbsim"
	"repro/internal/netlb"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stats"
)

func main() { daemon.Main("lbd", run) }

// run wires flags → backends → proxy, then either self-generates load or
// serves until ctx is cancelled. When ready is non-nil the proxy base URL
// is sent on it after startup — the hook tests use to drive the cluster
// in-process.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("lbd", flag.ContinueOnError)
	numBackends := fs.Int("backends", 2, "number of backend servers")
	polName := fs.String("policy", "random", "routing policy: random|leastloaded|sendto0")
	logPath := fs.String("log", "access.log", "access log path (empty disables)")
	requests := fs.Int("requests", 2000, "requests to self-generate (0 = serve until interrupted)")
	rate := fs.Float64("rate", 200, "self-generated request rate per second")
	base := fs.Duration("base", 2*time.Millisecond, "backend 0 base service time (each later backend +50%)")
	slope := fs.Duration("slope", 500*time.Microsecond, "added service time per in-flight request")
	seed := fs.Int64("seed", 1, "RNG seed")
	metricsAddr := fs.String("metrics-addr", "", "Prometheus /metrics listen address (empty disables)")
	canaryName := fs.String("canary", "", "canary policy blended over -policy (empty disables)")
	canaryShare := fs.Float64("canary-share", 0, "initial canary traffic share in [0,1]")
	adminAddr := fs.String("admin-addr", "", "share admin API listen address (empty disables)")
	debugAddr := fs.String("debug-addr", "", "pprof/expvar listen address (empty disables)")
	if err := daemon.ParseFlags(fs, args); err != nil {
		return err
	}

	if *numBackends < 2 {
		return fmt.Errorf("need at least 2 backends")
	}
	// Validated here, before any backend or log file is created, so a bad
	// invocation leaves nothing behind.
	if *adminAddr != "" && *canaryName == "" {
		return fmt.Errorf("-admin-addr needs -canary (there is no share to administer)")
	}
	backends := make([]*netlb.Backend, *numBackends)
	addrs := make([]string, *numBackends)
	for i := range backends {
		b := time.Duration(float64(*base) * (1 + 0.5*float64(i)))
		be, err := netlb.StartBackend(i, b, *slope)
		if err != nil {
			return err
		}
		defer be.Close()
		backends[i] = be
		addrs[i] = be.Addr()
		fmt.Fprintf(stdout, "backend %d at %s (base %v)\n", i, be.Addr(), b)
	}

	r := stats.NewRand(*seed)
	pol, err := policyByName(*polName, r)
	if err != nil {
		return err
	}
	var blend *policy.DynamicBlend
	if *canaryName != "" {
		canary, err := policyByName(*canaryName, r)
		if err != nil {
			return fmt.Errorf("canary: %w", err)
		}
		blend, err = policy.NewDynamicBlend(canary, pol, *canaryShare, stats.Split(r))
		if err != nil {
			return err
		}
		pol = blend
	}

	var logW *os.File
	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		logW = f
	}
	proxy, err := netlb.NewProxy(addrs, pol, stats.Split(r), logW)
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		proxy.SetMetrics(reg)
		obs.RegisterGoRuntime(reg)
		ms, err := daemon.ListenAndServe(*metricsAddr, obs.MetricsMux(reg))
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Fprintf(stdout, "metrics on http://%s/metrics\n", ms.Addr())
	}
	if *adminAddr != "" {
		as, err := daemon.ListenAndServe(*adminAddr, adminMux(blend))
		if err != nil {
			return err
		}
		defer as.Close()
		fmt.Fprintf(stdout, "share admin on http://%s/share\n", as.Addr())
	}
	debug, err := obs.StartDebug(*debugAddr)
	if err != nil {
		return err
	}
	defer debug.Close()
	if debug != nil {
		fmt.Fprintf(stdout, "debug (pprof/expvar) on http://%s/debug/pprof/\n", debug.Addr())
	}

	addr, err := proxy.Start()
	if err != nil {
		return err
	}
	defer proxy.Close()
	if blend != nil {
		fmt.Fprintf(stdout, "proxy (%s + %s canary at share %g) at http://%s\n",
			*polName, *canaryName, blend.Share(), addr)
	} else {
		fmt.Fprintf(stdout, "proxy (%s policy) at http://%s\n", *polName, addr)
	}
	if ready != nil {
		ready <- proxy.URL()
	}

	if *requests <= 0 {
		<-ctx.Done()
		return nil
	}
	res, err := netlb.GenerateLoad(proxy.URL(), *requests, *rate, stats.Split(r))
	if err != nil {
		return err
	}
	p99, err := res.P99()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "completed %d requests (%d errors): mean %v, p99 %v\n",
		len(res.Latencies), res.Errors, res.Mean(), p99)
	if *logPath != "" {
		fmt.Fprintf(stdout, "access log written to %s — harvest it with the harvester package\n", *logPath)
	}
	return nil
}

// policyByName resolves a routing policy flag value.
func policyByName(name string, r *rand.Rand) (core.Policy, error) {
	switch name {
	case "random":
		return policy.UniformRandom{R: stats.Split(r)}, nil
	case "leastloaded":
		return lbsim.LeastLoaded{}, nil
	case "sendto0":
		return policy.Constant{A: 0}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

// adminMux serves the canary share: GET /share reports it, POST /share
// with {"share": x} retunes the live blend — the one-field contract
// rollout.HTTPActuator speaks.
func adminMux(blend *policy.DynamicBlend) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/share", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
		case http.MethodPost:
			var body struct {
				Share float64 `json:"share"`
			}
			if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&body); err != nil {
				http.Error(w, "bad share body: "+err.Error(), http.StatusBadRequest)
				return
			}
			if err := blend.SetShare(body.Share); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		default:
			http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"share\":%g}\n", blend.Share())
	})
	return mux
}
