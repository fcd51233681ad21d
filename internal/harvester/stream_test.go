package harvester

import (
	"bufio"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lbsim"
	"repro/internal/ope"
	"repro/internal/policy"
	"repro/internal/stats"
)

func TestStreamNginxDeliversEntries(t *testing.T) {
	input := sampleLine + "\n" + sampleLine + "\n"
	var got []AccessEntry
	err := StreamNginx(strings.NewReader(input), func(e AccessEntry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Upstream != 1 {
		t.Errorf("streamed %d entries: %+v", len(got), got)
	}
}

func TestStreamNginxStopsOnHandlerError(t *testing.T) {
	boom := errors.New("boom")
	input := sampleLine + "\n" + sampleLine + "\n"
	calls := 0
	err := StreamNginx(strings.NewReader(input), func(AccessEntry) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if calls != 1 {
		t.Errorf("handler called %d times after error", calls)
	}
}

func TestStreamNginxValidation(t *testing.T) {
	if err := StreamNginx(strings.NewReader(""), nil); err == nil {
		t.Error("nil handler should fail")
	}
	if err := StreamNginx(strings.NewReader("garbage"), func(AccessEntry) error { return nil }); err == nil {
		t.Error("malformed line should fail")
	}
}

func TestIncrementalEstimatorMatchesBatchIPS(t *testing.T) {
	// The streaming estimate must agree with ope.IPS on the same data.
	r := stats.NewRand(1)
	ds := make(core.Dataset, 5000)
	for i := range ds {
		conns := []int{r.Intn(10), r.Intn(10)}
		a := core.Action(r.Intn(2))
		ds[i] = core.Datapoint{
			Context:    lbsim.BuildContext(conns, 0, 1),
			Action:     a,
			Reward:     0.1 + 0.01*float64(conns[a]),
			Propensity: 0.5,
		}
	}
	pol := lbsim.LeastLoaded{}
	batch, err := (ope.IPS{}).Estimate(pol, ds)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := NewIncrementalEstimator(pol)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds {
		if err := ie.Add(ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	v, se, n := ie.Estimate()
	if n != len(ds) {
		t.Fatalf("n = %d", n)
	}
	if math.Abs(v-batch.Value) > 1e-9 {
		t.Errorf("incremental %v != batch %v", v, batch.Value)
	}
	if math.Abs(se-batch.StdErr) > 1e-9 {
		t.Errorf("incremental se %v != batch %v", se, batch.StdErr)
	}
	if ie.Matches() != batch.Matches {
		t.Errorf("matches %d != %d", ie.Matches(), batch.Matches)
	}
}

func TestIncrementalEstimatorFromStream(t *testing.T) {
	// Full streaming path: log lines → entries → running estimate.
	input := strings.Join([]string{
		sampleLine, // upstream=1, rt=0.012345, conns 3|7, prop 0.5
		strings.Replace(sampleLine, "upstream=1", "upstream=0", 1),
		strings.Replace(sampleLine, " 200 ", " 502 ", 1), // skipped
	}, "\n")
	ie, err := NewIncrementalEstimator(policy.Constant{A: 0})
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	err = StreamNginx(strings.NewReader(input), func(e AccessEntry) error {
		ok, err := ie.AddEntry(e)
		if ok {
			kept++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 {
		t.Fatalf("kept %d entries, want 2", kept)
	}
	v, _, n := ie.Estimate()
	if n != 2 {
		t.Fatalf("n = %d", n)
	}
	// Only the upstream=0 line matches Constant{0}: value = (0 + 2*0.012345)/2.
	want := 0.012345
	if math.Abs(v-want) > 1e-9 {
		t.Errorf("estimate = %v, want %v", v, want)
	}
}

func TestStreamNginxLongLine(t *testing.T) {
	// A line longer than the scanner's initial 64 KiB buffer must still
	// parse (the buffer grows up to core.MaxRecordBytes). Bulk up the user-agent
	// field — paths and UAs in real logs can be pathological.
	longUA := strings.Repeat("x", 200*1024)
	line := strings.Replace(sampleLine, `"Go-http-client/1.1"`, `"`+longUA+`"`, 1)
	if len(line) <= 64*1024 {
		t.Fatalf("test line only %d bytes, want > 64 KiB", len(line))
	}
	var got []AccessEntry
	err := StreamNginx(strings.NewReader(line+"\n"+sampleLine+"\n"), func(e AccessEntry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("streamed %d entries, want 2", len(got))
	}
	if got[0].UserAgent != longUA {
		t.Errorf("long user-agent truncated to %d bytes", len(got[0].UserAgent))
	}
}

func TestStreamNginxLineOverCap(t *testing.T) {
	// Beyond core.MaxRecordBytes — the one record bound every reader in the
	// repository shares — the reader must fail loudly, not truncate.
	huge := strings.Replace(sampleLine, `"Go-http-client/1.1"`, `"`+strings.Repeat("y", core.MaxRecordBytes+1)+`"`, 1)
	err := StreamNginx(strings.NewReader(huge+"\n"), func(AccessEntry) error { return nil })
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over MaxRecordBytes: err = %v, want bufio.ErrTooLong", err)
	}
	// A 9 MiB line — over the 8 MiB this reader alone used to stop at — is
	// within the shared bound and parses.
	big := strings.Replace(sampleLine, `"Go-http-client/1.1"`, `"`+strings.Repeat("y", 9*1024*1024)+`"`, 1)
	n := 0
	if err := StreamNginx(strings.NewReader(big+"\n"), func(AccessEntry) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("9 MiB line: %d entries, err = %v", n, err)
	}
}

func TestStreamNginxCRLF(t *testing.T) {
	// Windows-style \r\n endings must not corrupt the trailing field.
	input := sampleLine + "\r\n" + sampleLine + "\r\n"
	var got []AccessEntry
	err := StreamNginx(strings.NewReader(input), func(e AccessEntry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("streamed %d entries, want 2", len(got))
	}
	if got[1].Propensity != 0.5 {
		t.Errorf("trailing prop field corrupted by CR: %+v", got[1])
	}
}

func TestStreamNginxHandlerErrorMidStreamLineNumber(t *testing.T) {
	boom := errors.New("boom")
	input := sampleLine + "\n\n" + sampleLine + "\n" + sampleLine + "\n"
	calls := 0
	err := StreamNginx(strings.NewReader(input), func(AccessEntry) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The second entry sits on line 3 (a blank line intervenes); the error
	// must carry the physical line number, not the entry index.
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should name physical line 3: %v", err)
	}
}

func TestIncrementalEstimatorSnapshot(t *testing.T) {
	ie, err := NewIncrementalEstimator(policy.Constant{A: 0})
	if err != nil {
		t.Fatal(err)
	}
	if s := ie.Snapshot(); s.N != 0 || s.Mean != 0 || s.StdErr != 0 || s.MatchRate != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	ctx := lbsim.BuildContext([]int{1, 2}, 0, 1)
	for i, a := range []core.Action{0, 1, 0, 0} {
		d := core.Datapoint{Context: ctx, Action: a, Reward: float64(i), Propensity: 0.5}
		if err := ie.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	s := ie.Snapshot()
	v, se, n := ie.Estimate()
	if s.N != n || s.Mean != v || s.StdErr != se {
		t.Errorf("snapshot %+v disagrees with Estimate (%v, %v, %d)", s, v, se, n)
	}
	if s.MatchRate != 0.75 {
		t.Errorf("match rate = %v, want 0.75", s.MatchRate)
	}
}

func TestIncrementalEstimatorMerge(t *testing.T) {
	// Sharded-then-merged must equal single-stream: split one dataset over
	// two estimators and merge.
	r := stats.NewRand(7)
	pol := lbsim.LeastLoaded{}
	whole, err := NewIncrementalEstimator(pol)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*IncrementalEstimator, 2)
	for i := range shards {
		if shards[i], err = NewIncrementalEstimator(pol); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		conns := []int{r.Intn(10), r.Intn(10)}
		a := core.Action(r.Intn(2))
		d := core.Datapoint{
			Context:    lbsim.BuildContext(conns, 0, 1),
			Action:     a,
			Reward:     0.1 + 0.01*float64(conns[a]),
			Propensity: 0.5,
		}
		if err := whole.Add(d); err != nil {
			t.Fatal(err)
		}
		if err := shards[i%2].Add(d); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := NewIncrementalEstimator(pol)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	ws, ms := whole.Snapshot(), merged.Snapshot()
	if ws.N != ms.N || math.Abs(ws.Mean-ms.Mean) > 1e-12 ||
		math.Abs(ws.StdErr-ms.StdErr) > 1e-12 || ws.MatchRate != ms.MatchRate {
		t.Errorf("merged %+v != whole %+v", ms, ws)
	}
}

func TestIncrementalEstimatorMergeValidation(t *testing.T) {
	a, _ := NewIncrementalEstimator(policy.Constant{A: 0})
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge should fail")
	}
	b, _ := NewIncrementalEstimator(policy.Constant{A: 1})
	if err := a.Merge(b); err == nil {
		t.Error("different policies should refuse to merge")
	}
	// Non-comparable policy types must not panic — same policy merges.
	lin := &policy.Linear{Weights: []core.Vector{{1}}}
	c, _ := NewIncrementalEstimator(lin)
	d, _ := NewIncrementalEstimator(lin)
	if err := c.Merge(d); err != nil {
		t.Errorf("same pointer policy should merge: %v", err)
	}
}

func TestIncrementalEstimatorValidation(t *testing.T) {
	if _, err := NewIncrementalEstimator(nil); err == nil {
		t.Error("nil policy should fail")
	}
	ie, _ := NewIncrementalEstimator(policy.Constant{A: 0})
	if err := ie.Add(core.Datapoint{Context: core.Context{NumActions: 2}, Propensity: 0}); err == nil {
		t.Error("zero propensity should fail")
	}
	if v, se, n := ie.Estimate(); v != 0 || se != 0 || n != 0 {
		t.Error("empty estimator should report zeros")
	}
	bad := AccessEntry{Status: 200, Upstream: 5, Conns: []int{1, 2}, Propensity: 0.5, RequestTime: 0.1}
	if _, err := ie.AddEntry(bad); err == nil {
		t.Error("inconsistent upstream should fail")
	}
}
