package harvester

import (
	"fmt"
	"io"
	"math"
	"reflect"

	"repro/internal/core"
	"repro/internal/lbsim"
)

// StreamNginx parses an access log incrementally, invoking handle for each
// entry as soon as its line is read. Unlike ScavengeNginx it never holds
// the whole log in memory, so it suits tailing a live proxy's log — the
// paper's footnote that "off-policy evaluation may incrementally update;
// it just does not intervene in a live (online) system."
//
// handle returning a non-nil error stops the stream and propagates the
// error. Malformed lines abort with their line number.
func StreamNginx(r io.Reader, handle func(AccessEntry) error) error {
	if handle == nil {
		return fmt.Errorf("harvester: nil stream handler")
	}
	var memo timeMemo
	lr := NewLineReader(r)
	for lr.Fill() {
		for lr.Next() {
			// handle may keep the entry: it gets its own copy of the line
			// (the text fields are substrings of it) and its own Conns.
			var e AccessEntry
			if err := parseNginx(string(lr.Line()), &e, &memo); err != nil {
				return fmt.Errorf("line %d: %w", lr.LineNo(), err)
			}
			if err := handle(e); err != nil {
				return fmt.Errorf("line %d: handler: %w", lr.LineNo(), err)
			}
		}
	}
	if err := lr.Err(); err != nil {
		return fmt.Errorf("harvester: reading access log: %w", err)
	}
	return nil
}

// IncrementalEstimator maintains a running ips estimate over a stream of
// harvested datapoints — policy evaluation that updates per log line,
// without storing the data.
type IncrementalEstimator struct {
	policy core.Policy
	n      int
	sum    float64
	sumSq  float64
	match  int
}

// NewIncrementalEstimator evaluates the given candidate policy.
func NewIncrementalEstimator(policy core.Policy) (*IncrementalEstimator, error) {
	if policy == nil {
		return nil, fmt.Errorf("harvester: nil policy")
	}
	return &IncrementalEstimator{policy: policy}, nil
}

// Add folds one datapoint into the estimate.
func (ie *IncrementalEstimator) Add(d core.Datapoint) error {
	if !(d.Propensity > 0) {
		return fmt.Errorf("harvester: datapoint with propensity %v", d.Propensity)
	}
	pi := core.ActionProb(ie.policy, &d.Context, d.Action)
	w := pi / d.Propensity
	term := w * d.Reward
	ie.n++
	ie.sum += term
	ie.sumSq += term * term
	if pi > 0 {
		ie.match++
	}
	return nil
}

// AddEntry folds one parsed access-log entry (2xx only; others are
// skipped and reported via the bool).
func (ie *IncrementalEstimator) AddEntry(e AccessEntry) (bool, error) {
	if e.Status < 200 || e.Status > 299 || e.Upstream < 0 || len(e.Conns) == 0 || e.Propensity <= 0 {
		return false, nil
	}
	if e.Upstream >= len(e.Conns) {
		return false, fmt.Errorf("harvester: upstream %d with %d conns", e.Upstream, len(e.Conns))
	}
	return true, ie.Add(core.Datapoint{
		Context:    lbsim.BuildContext(e.Conns, 0, 1),
		Action:     core.Action(e.Upstream),
		Reward:     e.RequestTime,
		Propensity: e.Propensity,
	})
}

// Estimate returns the current running estimate.
func (ie *IncrementalEstimator) Estimate() (value, stderr float64, n int) {
	if ie.n == 0 {
		return 0, 0, 0
	}
	nf := float64(ie.n)
	mean := ie.sum / nf
	if ie.n < 2 {
		return mean, 0, ie.n
	}
	variance := (ie.sumSq - nf*mean*mean) / (nf - 1)
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance / nf), ie.n
}

// Matches reports how many folded datapoints the candidate matched.
func (ie *IncrementalEstimator) Matches() int { return ie.match }

// Snapshot is a point-in-time view of an IncrementalEstimator: everything a
// caller needs to report or compare estimates without reaching into the
// accumulator's internals.
type Snapshot struct {
	// N counts folded datapoints.
	N int
	// Mean is the running ips estimate; StdErr its standard error.
	Mean   float64
	StdErr float64
	// MatchRate is the fraction of folded datapoints on which the candidate
	// put positive probability — the estimator's effective support.
	MatchRate float64
}

// Snapshot returns the estimator's current state in one call.
func (ie *IncrementalEstimator) Snapshot() Snapshot {
	mean, se, n := ie.Estimate()
	s := Snapshot{N: n, Mean: mean, StdErr: se}
	if n > 0 {
		s.MatchRate = float64(ie.match) / float64(n)
	}
	return s
}

// Merge folds another estimator's accumulated state into ie, enabling the
// sharded design: run one estimator per ingestion worker contention-free,
// then merge shards on read. Both estimators must evaluate the same
// candidate — merging estimates of different policies is meaningless, so
// Merge refuses when the policies differ.
func (ie *IncrementalEstimator) Merge(other *IncrementalEstimator) error {
	if other == nil {
		return fmt.Errorf("harvester: merging nil estimator")
	}
	// Interface != panics on non-comparable dynamic types (e.g. a policy
	// struct holding a slice), so gate the value comparison on comparability.
	ta, tb := reflect.TypeOf(ie.policy), reflect.TypeOf(other.policy)
	if ta != tb || (ta.Comparable() && ie.policy != other.policy) {
		return fmt.Errorf("harvester: merging estimators of different policies")
	}
	ie.n += other.n
	ie.sum += other.sum
	ie.sumSq += other.sumSq
	ie.match += other.match
	return nil
}
