package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload, plain and traced, on a twentieth of the
// block for one second, through the same entry point run.sh uses, and
// checks the shape of what comes out.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := realMain([]string{"-workload", w.Name, "-seed", "3", "-seconds", "1",
				"-trace", trace, "-scale", "0.05", "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.Name, trace, err)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, table has %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, d.Name)
					continue
				}
				if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || mv.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s = %v %q", w.Name, trace, d.Name, mv.Value, mv.Unit)
				}
				if trace == "0" && mv.Value <= 0 {
					t.Errorf("%s: gated metric %s = %v, must be positive", w.Name, d.Name, mv.Value)
				}
			}
		}
		f, err := os.Open(filepath.Join(out, "trace-"+w.Name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := obs.ReadTrace(f)
		_ = f.Close()
		if err != nil || len(recs) == 0 {
			t.Errorf("%s: trace: %d records, %v", w.Name, len(recs), err)
		}
	}
}

// TestTableMatchesBenchmarkJSON fails when BENCHMARK.json and the harness's
// own tables drift apart.
func TestTableMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", decl.Paths, decl.RunSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q, harness %q", i, decl.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n declared %+v\n harness  %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n declared %+v\n harness  %+v", decl.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestOracleCatchesOneFlippedReward folds a block with a single reward
// changed and requires the oracle to refuse it.
func TestOracleCatchesOneFlippedReward(t *testing.T) {
	for _, w := range workloads {
		blk, err := genBlock(7, 4096, w.upstreams)
		if err != nil {
			t.Fatal(err)
		}
		pols := w.policies(7)
		want, err := newOracle(blk.pts, pols)
		if err != nil {
			t.Fatal(err)
		}
		fold := func() error {
			reg, err := newRegistry(pols, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range blk.pts {
				reg.Fold(0, &blk.pts[i])
			}
			return want.check(reg.Estimates(0.05), int64(len(blk.pts)))
		}
		if err := fold(); err != nil {
			t.Errorf("%s: oracle refuses the true fold: %v", w.Name, err)
		}
		blk.pts[1234].Reward += 1.0 / 64
		if err := fold(); err == nil {
			t.Errorf("%s: oracle accepted a fold with one reward changed", w.Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x_ms", Unit: "ms", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "x_per_s", Unit: "1/s", Better: "higher", Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{102, 103, 101, 102, 102}, "ok"},
		{lower, steady, []float64{110, 111, 109, 110, 110}, "regressed"},
		{higher, steady, []float64{110, 111, 109, 110, 110}, "ok"},
		{higher, steady, []float64{90, 91, 89, 90, 90}, "regressed"},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "unresolved"},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{50, 60, 70, 55, 65}, "ok"},
	}
	for i, c := range cases {
		if _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}
