package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var s Simulator
	var order []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		if _, err := s.At(at, func() { order = append(order, at) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunAll(100); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events out of order: %v", order)
	}
	if len(order) != 5 {
		t.Errorf("ran %d events, want 5", len(order))
	}
	if s.Now() != 5 {
		t.Errorf("clock = %v, want 5", s.Now())
	}
}

func TestEqualTimeEventsRunInScheduleOrder(t *testing.T) {
	var s Simulator
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := s.At(1.0, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunAll(100); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break broken: %v", order)
		}
	}
}

func TestSchedulePastFails(t *testing.T) {
	var s Simulator
	if _, err := s.At(5, func() { _ = 0 }); err != nil {
		t.Fatal(err)
	}
	s.Step()
	if _, err := s.At(1, func() {}); err == nil {
		t.Error("scheduling in the past should fail")
	}
	if _, err := s.After(-1, func() {}); err == nil {
		t.Error("negative delay should fail")
	}
	if _, err := s.At(10, nil); err == nil {
		t.Error("nil callback should fail")
	}
}

func TestCancel(t *testing.T) {
	var s Simulator
	fired := false
	e, err := s.At(1, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	e.Cancel()
	if err := s.RunAll(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled event fired")
	}
	e.Cancel() // double-cancel is a no-op
}

func TestRunHorizon(t *testing.T) {
	var s Simulator
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		if _, err := s.At(at, func() { fired = append(fired, at) }); err != nil {
			t.Fatal(err)
		}
	}
	n := s.Run(3)
	if n != 3 || len(fired) != 3 {
		t.Errorf("ran %d events (fired %v), want 3 incl. the one exactly at horizon", n, fired)
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
	// Continue to the end.
	n = s.Run(math.Inf(1))
	if n != 2 {
		t.Errorf("second run executed %d, want 2", n)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	var s Simulator
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			if _, err := s.After(1, chain); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.At(0, chain); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(100); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("chain ran %d times, want 5", count)
	}
	if s.Now() != 4 {
		t.Errorf("clock = %v, want 4", s.Now())
	}
}

func TestRunAllBudget(t *testing.T) {
	var s Simulator
	var loop func()
	loop = func() { _ = mustEvent(s.After(1, loop)) }
	if _, err := s.At(0, loop); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(50); err == nil {
		t.Error("budget exhaustion should be an error")
	}
}

func TestPoissonArrivalRate(t *testing.T) {
	var s Simulator
	r := stats.NewRand(1)
	n := 0
	if _, err := NewPoissonArrivals(&s, r, 10.0, 0, func(int) { n++ }); err != nil {
		t.Fatal(err)
	}
	s.Run(1000)
	// Expect ~10*1000 = 10000 arrivals; Poisson sd ≈ 100.
	if n < 9500 || n > 10500 {
		t.Errorf("arrivals = %d, want ≈10000", n)
	}
}

func TestPoissonArrivalLimit(t *testing.T) {
	var s Simulator
	r := stats.NewRand(2)
	p, err := NewPoissonArrivals(&s, r, 100, 25, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(1000); err != nil {
		t.Fatal(err)
	}
	if p.count != 25 {
		t.Errorf("count = %d, want 25", p.count)
	}
}

func TestArrivalConstructorsValidate(t *testing.T) {
	var s Simulator
	r := stats.NewRand(1)
	if _, err := NewPoissonArrivals(&s, r, 0, 0, func(int) {}); err == nil {
		t.Error("rate=0 should fail")
	}
	if _, err := NewPoissonArrivals(&s, r, 1, 0, nil); err == nil {
		t.Error("nil handler should fail")
	}
}

// Property: the virtual clock is monotone under any schedule of delays.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(delays []float64) bool {
		var s Simulator
		prev := -1.0
		ok := true
		for _, d := range delays {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			d = math.Abs(math.Mod(d, 1000))
			if _, err := s.After(d, func() {
				if s.Now() < prev {
					ok = false
				}
				prev = s.Now()
			}); err != nil {
				return false
			}
		}
		if err := s.RunAll(len(delays) + 1); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
