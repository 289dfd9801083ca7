package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestWorkerPoolRunsEveryWorker checks the fan-out contract — fn(w) runs
// exactly once per worker per Do — across repeated dispatches of the
// same pool.
func TestWorkerPoolRunsEveryWorker(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		p := NewWorkerPool(n)
		if p.Workers() != n {
			t.Fatalf("Workers() = %d, want %d", p.Workers(), n)
		}
		counts := make([]int64, n)
		for round := 0; round < 50; round++ {
			p.Do(func(w int) { atomic.AddInt64(&counts[w], 1) })
		}
		for w, c := range counts {
			if c != 50 {
				t.Fatalf("n=%d: worker %d ran %d times, want 50", n, w, c)
			}
		}
		p.Close()
	}
}

// TestWorkerPoolZeroPanics: a pool needs at least one worker.
func TestWorkerPoolZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorkerPool(0) did not panic")
		}
	}()
	NewWorkerPool(0)
}

// TestWorkerPoolDisjointWrites checks the caller's intended usage: each
// worker filling a contiguous chunk of one shared slice, reduced by the
// caller after Do. Any lost update or torn barrier shows up as a wrong
// element.
func TestWorkerPoolDisjointWrites(t *testing.T) {
	const n = 4
	const items = 1000
	p := NewWorkerPool(n)
	defer p.Close()
	out := make([]int, items)
	for round := 1; round <= 20; round++ {
		r := round
		p.Do(func(w int) {
			lo, hi := items*w/n, items*(w+1)/n
			for i := lo; i < hi; i++ {
				out[i] = r * i
			}
		})
		for i, v := range out {
			if v != r*i {
				t.Fatalf("round %d: out[%d] = %d, want %d", r, i, v, r*i)
			}
		}
	}
}

// TestWorkerPoolCloseIdempotent closes twice (must not panic) and pins
// the Do-after-Close panic.
func TestWorkerPoolCloseIdempotent(t *testing.T) {
	p := NewWorkerPool(4)
	p.Do(func(int) {})
	p.Close()
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Do after Close did not panic")
		}
	}()
	p.Do(func(int) {})
}

// TestWorkerPoolSerialNoGoroutines pins the n=1 fast path: a one-worker
// pool must never start goroutines, so the serial sweep stays exactly as
// cheap as having no pool at all.
func TestWorkerPoolSerialNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewWorkerPool(1)
	for i := 0; i < 100; i++ {
		p.Do(func(w int) {
			if w != 0 {
				t.Fatalf("serial pool ran worker %d", w)
			}
		})
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("serial pool grew goroutine count %d -> %d", before, after)
	}
	p.Close()
}

// TestBarrierPoolLifecycle checks the kernel accessor: the pool has one
// worker per shard and is built once.
func TestBarrierPoolLifecycle(t *testing.T) {
	for _, shards := range []int{1, 3} {
		ss := NewSharded(shards, 1)
		pool := ss.BarrierPool()
		if pool.Workers() != ss.Shards() {
			t.Fatalf("barrier pool has %d workers, want %d shards", pool.Workers(), ss.Shards())
		}
		if ss.BarrierPool() != pool {
			t.Fatal("BarrierPool did not return the same pool on second call")
		}
		pool.Close()
	}
}
