package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer emits structured spans and events as JSONL: one self-contained
// JSON object per line, written when the span ends, so a trace file is
// greppable, tail-able, and needs no reader state. The clock is injected —
// daemons trace wall time, simulations trace virtual time — which is what
// makes "total traced duration equals simulated duration" testable at all.
//
// A nil *Tracer is a valid no-op tracer: Start returns a nil *Span, and
// nil spans accept End/SetAttr/ID calls. Call sites therefore never guard
// on "is tracing enabled".
type Tracer struct {
	clock Clock
	next  atomic.Uint64

	mu  sync.Mutex // serializes writes; one record is one line
	w   io.Writer
	err error // first write/encode error, sticky
}

// NewTracer writes JSONL trace records to w, timestamping with clock
// (nil selects the wall clock). The caller owns w's lifecycle.
func NewTracer(w io.Writer, clock Clock) *Tracer {
	if clock == nil {
		clock = WallClock()
	}
	return &Tracer{clock: clock, w: w}
}

// Record is one line of a trace file.
type Record struct {
	// Type is "span" (has a duration) or "event" (instantaneous).
	Type string `json:"type"`
	// ID is unique within the trace; Parent is the enclosing span's ID, 0
	// for roots. Spans are written when they end, so a parent's record
	// appears after its children's.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartUS is the clock's microseconds since the Unix epoch (for
	// SimClock with a zero Epoch: virtual microseconds).
	StartUS int64 `json:"start_us"`
	// DurUS is the span's duration in microseconds; 0 for events.
	DurUS int64          `json:"dur_us"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Span is one in-flight traced operation. A span belongs to the goroutine
// that started it: SetAttr and End are not synchronized.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  map[string]any
	ended  bool
}

// Start opens a span. parent may be nil (a root span). attrs may be nil;
// the map is retained until End, so the caller must not mutate it after
// handing it over unless through SetAttr.
func (t *Tracer) Start(name string, parent *Span, attrs map[string]any) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, id: t.next.Add(1), name: name, start: t.clock.Now(), attrs: attrs}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

// SetAttr attaches one attribute, overwriting any same-keyed value.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
}

// End closes the span and writes its record. Ending a span twice writes
// once; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	end := s.tr.clock.Now()
	s.tr.write(Record{
		Type:    "span",
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.start.UnixMicro(),
		DurUS:   end.Sub(s.start).Microseconds(),
		Attrs:   s.attrs,
	})
}

// Event writes an instantaneous record (queue stall markers, checkpoint
// ticks) under the given parent span (nil for a root event).
func (t *Tracer) Event(name string, parent *Span, attrs map[string]any) {
	if t == nil {
		return
	}
	r := Record{
		Type:    "event",
		ID:      t.next.Add(1),
		Name:    name,
		StartUS: t.clock.Now().UnixMicro(),
		Attrs:   attrs,
	}
	if parent != nil {
		r.Parent = parent.id
	}
	t.write(r)
}

// Err returns the first write error the tracer has hit, if any. Tracing is
// advisory — call sites keep running — but tests and shutdown paths should
// surface a broken trace file.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *Tracer) write(r Record) {
	line, err := json.Marshal(r) // map keys marshal sorted: deterministic lines
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(append(line, '\n')); err != nil {
		t.err = err
	}
}

// ReadTrace parses a JSONL trace, validating structural invariants: every
// line is a well-formed record, IDs are unique, and every non-zero parent
// references a span ID present in the trace. (Parents legitimately appear
// after their children — spans are written on End.)
func ReadTrace(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var recs []Record
	seen := make(map[uint64]bool)
	spanIDs := make(map[uint64]bool)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		if rec.Type != "span" && rec.Type != "event" {
			return nil, fmt.Errorf("obs: trace line %d: unknown record type %q", lineNo, rec.Type)
		}
		if rec.ID == 0 {
			return nil, fmt.Errorf("obs: trace line %d: record without id", lineNo)
		}
		if seen[rec.ID] {
			return nil, fmt.Errorf("obs: trace line %d: duplicate id %d", lineNo, rec.ID)
		}
		seen[rec.ID] = true
		if rec.Type == "span" {
			spanIDs[rec.ID] = true
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	for _, rec := range recs {
		if rec.Parent != 0 && !spanIDs[rec.Parent] {
			return nil, fmt.Errorf("obs: record %d (%s) has unknown parent %d", rec.ID, rec.Name, rec.Parent)
		}
	}
	return recs, nil
}
