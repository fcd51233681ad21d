package obs

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
)

// TestTracerVirtualClock drives the tracer from a des.Simulator clock:
// span durations must equal the virtual time elapsed between Start and
// End, nesting must be reconstructable from parent IDs, and the root
// span's duration must equal the whole simulated wall time — the property
// the -trace acceptance rests on.
func TestTracerVirtualClock(t *testing.T) {
	var sim des.Simulator
	clock := SimClock{Sim: &sim}
	var buf strings.Builder
	tr := NewTracer(&buf, clock)

	advance := func(seconds float64) {
		if _, err := sim.After(seconds, func() {}); err != nil {
			t.Fatal(err)
		}
		sim.Step()
	}

	root := tr.Start("experiment/fig3", nil, map[string]any{"seed": int64(1)})
	for i := 0; i < 3; i++ {
		batch := tr.Start("replicates", root, map[string]any{"n": 100})
		advance(1.5)
		batch.End()
	}
	tr.Event("checkpoint", root, nil)
	root.End()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var spans, events []Record
	for _, r := range recs {
		if r.Type == "span" {
			spans = append(spans, r)
		} else {
			events = append(events, r)
		}
	}
	if len(spans) != 4 || len(events) != 1 {
		t.Fatalf("got %d spans, %d events", len(spans), len(events))
	}
	// Spans are written on End: the three batches come first, root last.
	rootRec := spans[3]
	if rootRec.Name != "experiment/fig3" || rootRec.Parent != 0 {
		t.Fatalf("root record = %+v", rootRec)
	}
	for i, b := range spans[:3] {
		if b.Name != "replicates" || b.Parent != rootRec.ID {
			t.Errorf("batch %d = %+v, want parent %d", i, b, rootRec.ID)
		}
		if b.DurUS != 1_500_000 {
			t.Errorf("batch %d duration = %dus, want 1.5s", i, b.DurUS)
		}
		if want := int64(i) * 1_500_000; b.StartUS != want {
			t.Errorf("batch %d start = %dus, want %d", i, b.StartUS, want)
		}
	}
	// Total traced duration equals the simulated wall time exactly.
	if rootRec.DurUS != 4_500_000 {
		t.Errorf("root duration = %dus, want 4.5s of virtual time", rootRec.DurUS)
	}
	if rootRec.Attrs["seed"] != float64(1) { // JSON numbers decode as float64
		t.Errorf("root attrs = %v", rootRec.Attrs)
	}
	if events[0].Parent != rootRec.ID || events[0].DurUS != 0 {
		t.Errorf("event = %+v", events[0])
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", nil, nil)
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.End()
	sp.SetAttr("k", 1)
	tr.Event("e", nil, nil)
	if tr.Err() != nil {
		t.Error("nil tracer has an error")
	}
}

func TestTracerDoubleEndWritesOnce(t *testing.T) {
	var buf strings.Builder
	tr := NewTracer(&buf, &FixedClock{T: time.Unix(100, 0)})
	sp := tr.Start("once", nil, nil)
	sp.End()
	sp.End()
	recs, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Errorf("got %d records, want 1", len(recs))
	}
	if recs[0].StartUS != 100_000_000 {
		t.Errorf("start = %d", recs[0].StartUS)
	}
}

func TestReadTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad json":       "{not json}\n",
		"unknown type":   `{"type":"widget","id":1,"name":"x","start_us":0,"dur_us":0}` + "\n",
		"zero id":        `{"type":"span","id":0,"name":"x","start_us":0,"dur_us":0}` + "\n",
		"duplicate id":   `{"type":"span","id":1,"name":"x","start_us":0,"dur_us":0}` + "\n" + `{"type":"span","id":1,"name":"y","start_us":0,"dur_us":0}` + "\n",
		"unknown parent": `{"type":"span","id":1,"parent":99,"name":"x","start_us":0,"dur_us":0}` + "\n",
		"event parent":   `{"type":"event","id":1,"name":"e","start_us":0,"dur_us":0}` + "\n" + `{"type":"span","id":2,"parent":1,"name":"x","start_us":0,"dur_us":0}` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// errWriter fails after the first write, for sticky-error coverage.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("writer broke")
	}
	return len(p), nil
}

func TestTracerStickyError(t *testing.T) {
	w := &errWriter{}
	tr := NewTracer(w, &FixedClock{T: time.Unix(0, 0)})
	tr.Event("a", nil, nil)
	if tr.Err() != nil {
		t.Fatal("first write should succeed")
	}
	tr.Event("b", nil, nil)
	if tr.Err() == nil {
		t.Fatal("second write error not recorded")
	}
	tr.Event("c", nil, nil) // must not clobber or panic
	if w.n != 2 {
		t.Errorf("writes after error = %d, want none", w.n-2)
	}
}
