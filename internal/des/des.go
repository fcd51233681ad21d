// Package des is a small discrete-event simulation engine. The load
// balancing and caching substrates run on top of it: a Simulator owns a
// virtual clock and an event heap, and actors schedule callbacks at future
// virtual times.
//
// The engine is single-goroutine by design — determinism matters more than
// parallelism for reproducing the paper's experiments. Given the same seed
// and the same schedule of events, a run is bit-for-bit repeatable.
package des

import (
	"container/heap"
	"errors"
	"fmt"
)

// Event is a callback scheduled to run at a virtual time.
type Event struct {
	at   float64
	seq  uint64 // tie-break so equal-time events run in schedule order
	fn   func()
	dead bool
	idx  int
}

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired or was already canceled is a no-op.
func (e *Event) Cancel() { e.dead = true }

// eventHeap orders events by (time, sequence number).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	e.idx = -1
	return e
}

// Simulator owns the virtual clock and pending events. The zero value is
// ready to use, starting at time 0.
type Simulator struct {
	now    float64
	seq    uint64
	events eventHeap
}

// ErrPast is returned when scheduling an event before the current time.
var ErrPast = errors.New("des: cannot schedule event in the past")

// Now returns the current virtual time.
func (s *Simulator) Now() float64 { return s.now }

// Pending returns the number of events still queued (including canceled
// events that have not yet been popped).
func (s *Simulator) Pending() int { return len(s.events) }

// At schedules fn to run at absolute virtual time t.
func (s *Simulator) At(t float64, fn func()) (*Event, error) {
	if t < s.now {
		return nil, fmt.Errorf("%w: t=%v now=%v", ErrPast, t, s.now)
	}
	if fn == nil {
		return nil, errors.New("des: nil event callback")
	}
	e := &Event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, e)
	return e, nil
}

// After schedules fn to run d virtual time units from now.
func (s *Simulator) After(d float64, fn func()) (*Event, error) {
	if d < 0 {
		return nil, fmt.Errorf("%w: negative delay %v", ErrPast, d)
	}
	return s.At(s.now+d, fn)
}

// Step executes the single earliest pending event, advancing the clock to
// its time. It returns false when no events remain.
func (s *Simulator) Step() bool {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*Event)
		if e.dead {
			continue
		}
		s.now = e.at
		e.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or the clock passes horizon.
// Events scheduled exactly at the horizon still run. It returns the number
// of events executed.
func (s *Simulator) Run(horizon float64) int {
	n := 0
	for len(s.events) > 0 {
		// Peek: heap root is the earliest event.
		next := s.events[0]
		if next.dead {
			heap.Pop(&s.events)
			continue
		}
		if next.at > horizon {
			break
		}
		s.Step()
		n++
	}
	return n
}

// RunAll executes events until the queue drains, with a step budget as a
// runaway guard. It returns an error if the budget is exhausted with events
// still pending.
func (s *Simulator) RunAll(maxSteps int) error {
	for i := 0; i < maxSteps; i++ {
		if !s.Step() {
			return nil
		}
	}
	if s.Pending() > 0 {
		return fmt.Errorf("des: step budget %d exhausted with %d events pending", maxSteps, s.Pending())
	}
	return nil
}
