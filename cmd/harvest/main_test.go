package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRunDispatchesEveryExperiment(t *testing.T) {
	// Smoke-run the cheap experiments at full size and the expensive ones
	// in quick mode, checking each prints its identifying header.
	cases := []struct {
		name   string
		quick  bool
		header string
	}{
		{"fig1", false, "Fig 1"},
		{"fig2", false, "Fig 2"},
		{"fig4", false, "Fig 4"},
		{"table2", true, "Table 2"},
		{"table3", true, "Table 3"},
		{"fig6", true, "Fig 6"},
		{"eq1", true, "Eq. 1"},
		{"loop", true, "Continuous"},
		{"drift", true, "A2 violation"},
		{"rollout", true, "Staged rollout"},
		{"zipf", true, "Workload contrast"},
		{"p99", true, "Tail latency"},
		{"longterm", true, "Long-term effects"},
		{"ablate", true, "Ablation"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := run(&buf, c.name, 1, c.quick, 0, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(buf.String(), c.header) {
			t.Errorf("%s output missing %q:\n%s", c.name, c.header, buf.String())
		}
	}
}

func TestRunFig3Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig3", 1, true, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig 3") {
		t.Errorf("missing header:\n%s", buf.String())
	}
}

// TestRunAllMatchesResultsSeed1 pins the committed paper-results file:
// `harvest all` at seed 1 must regenerate RESULTS-seed1.txt byte for byte,
// so a refactor of any estimator or simulator under it cannot move a
// printed figure unnoticed.
func TestRunAllMatchesResultsSeed1(t *testing.T) {
	want, err := os.ReadFile("../../RESULTS-seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, "all", 1, false, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("output differs from RESULTS-seed1.txt at line %d:\n got  %q\n want %q", i+1, g, w)
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope", 1, false, 1, nil); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// tickClock is a deterministic virtual clock: every reading advances it by
// one millisecond, so span durations count clock reads rather than host
// scheduling and the trace-shape assertions below can be exact about time.
type tickClock struct{ t time.Time }

func (c *tickClock) Now() time.Time {
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

// TestRunFig3Trace pins the -trace contract on fig3: exactly one root
// "experiment/fig3" span, at least one "replicates" batch span per
// scheduler batch, correct parent nesting, and every child span's
// [start, start+dur] interval inside the root's — i.e. the experiment span
// accounts for the full (virtual) wall time of its batches. workers=1 keeps
// the scheduler on the serial path so the single-goroutine tickClock is
// never read concurrently.
func TestRunFig3Trace(t *testing.T) {
	var traceBuf bytes.Buffer
	tr := obs.NewTracer(&traceBuf, &tickClock{t: time.Unix(0, 0).UTC()})
	if err := run(io.Discard, "fig3", 1, true, 1, tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
	recs, err := obs.ReadTrace(&traceBuf)
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}

	var root obs.Record
	roots := 0
	batches := 0
	for _, r := range recs {
		switch {
		case r.Name == "experiment/fig3":
			root = r
			roots++
		case r.Name == "replicates":
			batches++
		default:
			t.Errorf("unexpected record %q in trace", r.Name)
		}
	}
	if roots != 1 {
		t.Fatalf("got %d experiment/fig3 spans, want exactly 1", roots)
	}
	if root.Parent != 0 {
		t.Errorf("experiment span should be a root, has parent %d", root.Parent)
	}
	if batches == 0 {
		t.Fatal("no replicates batch spans recorded")
	}
	for _, r := range recs {
		if r.Name != "replicates" {
			continue
		}
		if r.Parent != root.ID {
			t.Errorf("replicates span %d has parent %d, want experiment span %d", r.ID, r.Parent, root.ID)
		}
		if r.StartUS < root.StartUS || r.StartUS+r.DurUS > root.StartUS+root.DurUS {
			t.Errorf("replicates span [%d, %d] escapes experiment span [%d, %d]",
				r.StartUS, r.StartUS+r.DurUS, root.StartUS, root.StartUS+root.DurUS)
		}
		if r.Attrs["n"] == nil || r.Attrs["workers"] == nil {
			t.Errorf("replicates span %d missing n/workers attrs: %v", r.ID, r.Attrs)
		}
	}
	// The tickClock advances 1ms per reading and every reading happens
	// between the root's start and end, so the root span's duration must
	// equal (total clock reads - 1) ms: the experiment accounts for all
	// traced virtual time with nothing outside it.
	reads := int64(2 * len(recs)) // each span reads the clock at Start and End
	if want := (reads - 1) * 1000; root.DurUS != want {
		t.Errorf("experiment span duration %dus, want %dus (= all %d clock reads)", root.DurUS, want, reads)
	}
}

// TestRunTraceDisabled keeps the nil-tracer path span-free: run with tr=nil
// must not write anywhere (it would panic on a nil buffer if it tried).
func TestRunTraceDisabled(t *testing.T) {
	if err := run(io.Discard, "fig2", 1, true, 1, nil); err != nil {
		t.Fatal(err)
	}
}
