package repro

// End-to-end harvestd test: a live netlb topology (real backends, real
// reverse proxy, real HTTP load) logs randomized routing decisions to an
// access log; harvestd tails that log as it grows and estimates a candidate
// policy counterfactually; the candidate is then actually deployed on an
// identical topology and the measured value must fall inside the reported
// 95% confidence interval — the paper's harvest → estimate → deploy →
// verify loop, across process-like boundaries (files, sockets, HTTP).

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harvestd"
	"repro/internal/harvester"
	"repro/internal/lbsim"
	"repro/internal/netlb"
	"repro/internal/ope"
	"repro/internal/policy"
	"repro/internal/stats"
)

// runNetLB serves n requests through a fresh 2-backend topology under the
// given routing policy, writing the access log to path, and returns the
// number of completed requests.
func runNetLB(t *testing.T, path string, pol core.Policy, n int, seed int64) int {
	t.Helper()
	r := stats.NewRand(seed)
	addrs := make([]string, 2)
	for i := range addrs {
		base := time.Duration(float64(4*time.Millisecond) * (1 + 0.5*float64(i)))
		be, err := netlb.StartBackend(i, base, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		addrs[i] = be.Addr()
	}
	logF, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer logF.Close()
	proxy, err := netlb.NewProxy(addrs, pol, stats.Split(r), logF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.Start(); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	res, err := netlb.GenerateLoad(proxy.URL(), n, 250, stats.Split(r))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d load errors", res.Errors)
	}
	return len(res.Latencies)
}

// meanLoggedRT averages the proxy-measured request time over an access log —
// the same reward signal harvestd folds, so the deployed run's value is in
// identical units.
func meanLoggedRT(t *testing.T, path string) float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := harvester.ScavengeNginx(f)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int
	for _, e := range entries {
		if e.Status >= 200 && e.Status <= 299 {
			sum += e.RequestTime
			n++
		}
	}
	if n == 0 {
		t.Fatal("empty ground-truth log")
	}
	return sum / float64(n)
}

func TestE2EHarvestdEstimatesLiveNetLB(t *testing.T) {
	if testing.Short() {
		t.Skip("live netlb topology in -short mode")
	}
	dir := t.TempDir()
	exploreLog := filepath.Join(dir, "explore.log")
	// The access log must exist before harvestd starts tailing it.
	if f, err := os.Create(exploreLog); err != nil {
		t.Fatal(err)
	} else {
		f.Close()
	}

	// Start harvestd tailing the (still empty) log, evaluating the
	// least-loaded candidate against the uniform-random logging policy.
	reg, err := harvestd.NewRegistry(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("leastloaded", lbsim.LeastLoaded{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("uniform", policy.UniformRandom{}); err != nil {
		t.Fatal(err)
	}
	d, err := harvestd.New(harvestd.Config{
		Workers: 2, Clip: 10, Addr: "127.0.0.1:0",
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	d.AddSource(&harvestd.NginxSource{
		Path: exploreLog, Follow: true, Poll: 5 * time.Millisecond,
	})
	ctx := t.Context()
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(ctx)

	// Drive real load through a uniformly-randomized proxy while harvestd
	// tails its log live.
	const requests = 600
	completed := runNetLB(t, exploreLog, policy.UniformRandom{R: stats.NewRand(31)}, requests, 32)

	// Scrape the API until the tail catches up with the load.
	var est ope.PolicyEstimate
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.URL() + "/estimates?policy=leastloaded")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&est)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if est.N == int64(completed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("harvested %d of %d requests", est.N, completed)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Ground truth: actually deploy the candidate on an identical topology.
	truthLog := filepath.Join(dir, "truth.log")
	runNetLB(t, truthLog, lbsim.LeastLoaded{}, requests, 33)
	truth := meanLoggedRT(t, truthLog)

	// The counterfactual estimate's reported 95% empirical-Bernstein
	// interval must contain the deployed value.
	if !est.IPS.EBOK {
		t.Fatalf("no EB interval: %+v", est.IPS)
	}
	if truth < est.IPS.EBLo || truth > est.IPS.EBHi {
		t.Errorf("deployed value %.6f outside 95%% CI [%.6f, %.6f] (point %.6f)",
			truth, est.IPS.EBLo, est.IPS.EBHi, est.IPS.Value)
	}
	// And the point estimates themselves should be close: SNIPS is the
	// low-variance one.
	if rel := math.Abs(est.SNIPS.Value-truth) / truth; rel > 0.25 {
		t.Errorf("SNIPS %.6f vs deployed %.6f (%.0f%% off)", est.SNIPS.Value, truth, 100*rel)
	}
	// Sanity: least-loaded should not look worse than the logging policy.
	var unif ope.PolicyEstimate
	resp, err := http.Get(d.URL() + "/estimates?policy=uniform")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&unif); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if est.SNIPS.Value > unif.SNIPS.Value*1.05 {
		t.Errorf("least-loaded %.6f should not be slower than uniform %.6f",
			est.SNIPS.Value, unif.SNIPS.Value)
	}
}
