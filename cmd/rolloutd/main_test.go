package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harvestd"
	"repro/internal/rollout"
)

func TestParseShares(t *testing.T) {
	got, err := parseShares(" 0.01, 0.05 ,0.25 ")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.01, 0.05, 0.25}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parseShares = %v, want %v", got, want)
	}
	for _, spec := range []string{"", ",", "a,b", "0.1,zap"} {
		if _, err := parseShares(spec); err == nil {
			t.Errorf("parseShares(%q): expected error", spec)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{},
		{"-harvest", "http://x", "-candidate", "c"}, // missing baseline
		{"-harvest", "http://x", "-candidate", "c", "-baseline", "b", "-shares", "0.5,0.1"},
		{"-harvest", "http://x", "-candidate", "c", "-baseline", "b", "-objective", "sideways"},
		{"-harvest", "http://x", "-candidate", "c", "-baseline", "b", "positional"},
	} {
		if err := run(ctx, args, io.Discard, nil); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// growingHarvest is a self-advancing fake harvestd: every /evidence poll
// appends a fresh batch per arm before serving, so a controller polling it
// sees a live, steadily accumulating stream.
type growingHarvest struct {
	mu                 sync.Mutex
	candN, baseN       int64
	candSum, candSumSq float64
	baseSum, baseSumSq float64
}

func (g *growingHarvest) grow() {
	const dn, candMean, baseMean, sd = 300, 0.8, 0.5, 0.05
	g.candN += dn
	g.candSum += candMean * dn
	g.candSumSq += dn * (sd*sd + candMean*candMean)
	g.baseN += dn
	g.baseSum += baseMean * dn
	g.baseSumSq += dn * (sd*sd + baseMean*baseMean)
}

func estOf(n int64, sum, sumSq float64) harvestd.EstimatorValue {
	if n < 2 {
		return harvestd.EstimatorValue{}
	}
	nf := float64(n)
	v := sum / nf
	va := (sumSq - nf*v*v) / (nf - 1)
	if va < 0 {
		va = 0
	}
	return harvestd.EstimatorValue{Value: v, StdErr: math.Sqrt(va / nf)}
}

func (g *growingHarvest) serve(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/evidence", func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		defer g.mu.Unlock()
		g.grow()
		cand := estOf(g.candN, g.candSum, g.candSumSq)
		base := estOf(g.baseN, g.baseSum, g.baseSumSq)
		_ = json.NewEncoder(w).Encode(harvestd.Evidence{
			Version: harvestd.EvidenceVersion,
			Policies: []harvestd.PolicyEvidence{{
				Estimate:    harvestd.PolicyEstimate{Policy: "better", N: g.candN, MatchRate: 1, IPS: cand, ClippedIPS: cand, SNIPS: cand},
				Diagnostics: harvestd.PolicyDiagnostics{Policy: "better", N: g.candN, ESSFraction: 1},
			}, {
				Estimate:    harvestd.PolicyEstimate{Policy: "incumbent", N: g.baseN, MatchRate: 1, IPS: base, ClippedIPS: base, SNIPS: base},
				Diagnostics: harvestd.PolicyDiagnostics{Policy: "incumbent", N: g.baseN, ESSFraction: 1},
			}},
		})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRunPromotesToFull drives the binary's lifecycle: boot against a fake
// harvestd serving a clearly better candidate and an actuation endpoint,
// watch the controller walk the whole ramp to full, then shut down on
// signal.
func TestRunPromotesToFull(t *testing.T) {
	fake := (&growingHarvest{}).serve(t)

	var actMu sync.Mutex
	var actuated []float64
	actSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Share float64 `json:"share"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		actMu.Lock()
		actuated = append(actuated, body.Share)
		actMu.Unlock()
		w.Write([]byte("{}"))
	}))
	t.Cleanup(actSrv.Close)

	ready := make(chan string, 1)
	errc := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		errc <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-harvest", fake.URL,
			"-candidate", "better",
			"-baseline", "incumbent",
			"-actuate", actSrv.URL,
			"-poll-interval", "20ms",
			"-min-samples", "200",
		}, io.Discard, ready)
	}()
	var base string
	select {
	case base = <-ready:
	case err := <-errc:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for startup")
	}

	deadline := time.Now().Add(30 * time.Second)
	var st rollout.Status
	for {
		resp, err := http.Get(base + "/status")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && st.Stage == rollout.StageFull {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached full: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Share != 1 {
		t.Fatalf("full stage share %g, want 1", st.Share)
	}
	if len(st.Transitions) != 4 {
		t.Fatalf("transitions %+v, want 4 (shadow->1%%->5%%->25%%->full)", st.Transitions)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `rolloutd_stage{stage="full"} 1`) {
		t.Errorf("metrics missing full-stage gauge:\n%s", body)
	}

	actMu.Lock()
	lastShare := actuated[len(actuated)-1]
	actMu.Unlock()
	if lastShare != 1 {
		t.Fatalf("last actuated share %g, want 1", lastShare)
	}

	cancel() // SIGTERM path
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for shutdown")
	}
}
