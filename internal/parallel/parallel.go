// Package parallel is the deterministic replicate scheduler the experiment
// runners execute on. Every experiment in this repository is a seeded
// stochastic simulation whose replicate loops (resimulations, candidate
// policies, sweep points) are independent given their RNG streams; this
// package runs those loops on a worker pool without surrendering the
// reproducibility contract:
//
//   - each replicate's randomness derives from (rootSeed, replicateIndex)
//     via stats.SubstreamSeed — a pure function, so a replicate's stream
//     never depends on goroutine scheduling or on how much other replicates
//     drew;
//   - each replicate writes only its own index-ordered slot, and reductions
//     happen serially in index order after the pool drains, so float
//     summation order is fixed;
//   - errors are reported by the lowest failing index, matching what a
//     serial loop that runs to completion would report.
//
// Together these make the worker count an observable no-op: for every
// runner, Workers=1 and Workers=N produce byte-identical results — the
// invariant the seed-equivalence suite in internal/experiments pins.
package parallel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Resolve maps a Workers parameter to a concrete worker count: values < 1
// select runtime.NumCPU() (the default for every experiment runner), 1 is
// the serial path, anything larger is taken as-is.
func Resolve(workers int) int {
	if workers < 1 {
		return runtime.NumCPU()
	}
	return workers
}

// For runs task(0) … task(n-1) on Resolve(workers) workers and waits for
// all of them. Tasks must be independent and write only state they own
// (typically slot i of a caller-allocated slice); the scheduler guarantees
// nothing about execution order. Every task runs even if another fails, so
// the returned error — the lowest failing index's — does not depend on
// scheduling. workers=1 executes inline with no goroutines.
func For(workers, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Resolve(workers)
	if w > n {
		w = n
	}
	sp := traceStart("replicates", map[string]any{"n": n, "workers": w})
	defer sp.End()
	if w == 1 {
		// Legacy serial path: same loop a pre-scheduler runner ran. It
		// still runs every task so the error choice matches the pool's.
		var firstErr error
		for i := 0; i < n; i++ {
			if err := task(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = task(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForSeeded is For with each replicate handed its own seeded RNG, derived
// from (base, i) by stats.SubstreamSeed. This is the replicate-loop
// workhorse: the RNG is constructed inside the replicate (never shared, so
// no stream ever crosses a goroutine), and because the derivation is pure,
// replicate i draws the same stream whether the pool has 1 worker or 16 —
// and whether the loop runs 3 replicates or 3000.
func ForSeeded(workers, n int, base int64, task func(i int, r *rand.Rand) error) error {
	return For(workers, n, func(i int) error {
		// rand.New here (not stats.Substream) keeps this package free of a
		// stats round-trip in the hot loop; harvestlint grants internal/
		// parallel the same construction exemption as internal/stats.
		return task(i, rand.New(rand.NewSource(stats.SubstreamSeed(base, int64(i)))))
	})
}

// Do runs heterogeneous independent tasks (e.g. an experiment's two
// unrelated simulation passes) on the pool and waits for all of them.
func Do(workers int, tasks ...func() error) error {
	return For(workers, len(tasks), func(i int) error { return tasks[i]() })
}
