package parallel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stats"
)

func TestResolve(t *testing.T) {
	if Resolve(1) != 1 || Resolve(7) != 7 {
		t.Error("explicit worker counts must pass through")
	}
	if Resolve(0) < 1 || Resolve(-3) < 1 {
		t.Error("non-positive workers must resolve to at least one")
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		hits := make([]int, 100)
		if err := For(workers, len(hits), func(i int) error {
			hits[i]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	if err := For(4, 0, func(int) error { t.Error("n=0 must not run tasks"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := For(workers, 50, func(i int) error {
			if i == 7 || i == 31 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Errorf("workers=%d: err = %v, want the lowest failing index", workers, err)
		}
	}
}

// TestForSeededWorkerInvariance pins the scheduler's core guarantee: the
// values produced at every index are identical for any worker count.
func TestForSeededWorkerInvariance(t *testing.T) {
	draw := func(workers int) []int64 {
		vals := make([]int64, 200)
		if err := ForSeeded(workers, len(vals), 42, func(i int, r *rand.Rand) error {
			vals[i] = r.Int63()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	serial := draw(1)
	for _, workers := range []int{2, 4, 16} {
		if got := draw(workers); !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d produced different replicate streams than serial", workers)
		}
	}
}

// TestForSeededReplicateIndependence is the regression test for the bug
// class the scheduler removed from the experiment runners: replicates that
// draw from one shared stream (fig3's old simR, candidates splitting a
// shared root) make replicate k's randomness depend on replicates 0..k-1.
// With substreams, replicate i's draws are invariant to how many other
// replicates the loop runs.
func TestForSeededReplicateIndependence(t *testing.T) {
	draw := func(n int) []int64 {
		vals := make([]int64, n)
		if err := ForSeeded(4, n, 7, func(i int, r *rand.Rand) error {
			vals[i] = r.Int63()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	short, long := draw(3), draw(100)
	if !reflect.DeepEqual(short, long[:3]) {
		t.Error("replicate streams depend on the loop length — substream derivation broken")
	}
}

func TestForSeededMatchesSubstream(t *testing.T) {
	var got int64
	if err := ForSeeded(1, 3, 99, func(i int, r *rand.Rand) error {
		if i == 2 {
			got = r.Int63()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := stats.Substream(99, 2).Int63(); got != want {
		t.Errorf("ForSeeded RNG diverges from stats.Substream: %d vs %d", got, want)
	}
}

func TestDo(t *testing.T) {
	a, b := 0, 0
	if err := Do(2, func() error { a = 1; return nil }, func() error { b = 2; return nil }); err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 2 {
		t.Errorf("tasks did not run: a=%d b=%d", a, b)
	}
	if err := Do(2, func() error { return nil }, func() error { return fmt.Errorf("boom") }); err == nil {
		t.Error("Do must propagate task errors")
	}
}
