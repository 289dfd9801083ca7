package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// forkJoin runs fn(i) for every i in [0, n) and returns after all have
// finished: i = 0 inline on the caller, every other i on a fresh goroutine.
// It returns the non-nil result of the lowest i, or nil. fn must recover
// its own panics into that result — a panic left on a goroutine would kill
// the process from an anonymous stack — and confine its writes to
// index-private state.
//
// Fresh goroutines rather than parked ones: the fork-join's cost is the
// cross-thread wake, which a parked worker pays too, so reusing goroutines
// buys nothing for the machinery it takes.
func forkJoin(n int, fn func(i int) *WorkerPanic) *WorkerPanic {
	results := make([]*WorkerPanic, n)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			results[i] = fn(i)
		}()
	}
	results[0] = fn(0)
	wg.Wait()
	for _, p := range results {
		if p != nil {
			return p
		}
	}
	return nil
}

// WorkerPool is a fixed-fan-out executor for barrier-time work: Do(fn)
// runs fn(w) once per worker w in [0, Workers()) and returns when every
// invocation has finished. Worker 0 runs inline on the caller and the rest
// on fresh goroutines (forkJoin), so a pool of one worker never starts a
// goroutine at all.
//
// The pool exists for the conservative barrier's fleet sweeps.
// Determinism is the caller's contract: Do imposes no ordering between
// workers, so fn must write only worker-private state (disjoint index
// ranges), with any cross-worker reduction performed by the caller after
// Do returns, in worker order.
//
// A panic in fn, on any worker, is recovered there; Do waits for every
// worker to finish and then re-raises the lowest failing worker's panic as
// a *WorkerPanic naming the worker, the window whose barrier was running
// (when the pool is a sharded kernel's BarrierPool) and the original
// stack.
//
// A WorkerPool is not itself safe for concurrent Do calls; one barrier
// hook owns it at a time, which is exactly how the sharded kernel runs.
type WorkerPool struct {
	n      int
	closed bool
	// t and h are the window [t, h) whose barrier is running, set by the
	// owning kernel before each barrier hook; NaN outside one.
	t, h Time
}

// NewWorkerPool builds a pool of n workers; n <= 0 means GOMAXPROCS.
func NewWorkerPool(n int) *WorkerPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &WorkerPool{n: n, t: math.NaN(), h: math.NaN()}
}

// Workers returns the pool's fan-out.
func (p *WorkerPool) Workers() int { return p.n }

// Do runs fn(w) for every worker w in [0, n) and blocks until all have
// returned. fn must confine its writes to worker-private state.
func (p *WorkerPool) Do(fn func(worker int)) {
	if p.closed {
		panic("sim: Do on a closed WorkerPool")
	}
	if failed := forkJoin(p.n, func(w int) *WorkerPanic { return p.run(w, fn) }); failed != nil {
		panic(failed)
	}
}

// run calls fn for worker w, returning a panic it raises as a
// *WorkerPanic instead of unwinding.
func (p *WorkerPool) run(w int, fn func(worker int)) (pn *WorkerPanic) {
	defer func() {
		if r := recover(); r != nil {
			pn = capturePanic(r, fmt.Sprintf("barrier pool worker %d", w), p.t, p.h)
		}
	}()
	fn(w)
	return nil
}

// Close retires the pool. Idempotent; Do after Close panics.
func (p *WorkerPool) Close() { p.closed = true }

// SetBarrierParallelism sets the size of the kernel's barrier worker
// pool (0 = GOMAXPROCS, the default). It must be called before the first
// BarrierPool call; the pool's fan-out is fixed once built.
func (ss *ShardedSimulator) SetBarrierParallelism(n int) {
	if ss.pool != nil {
		panic(fmt.Sprintf("sim: SetBarrierParallelism(%d) after the barrier pool was built", n))
	}
	ss.barrierWorkers = n
}

// BarrierPool returns the kernel's barrier worker pool, built at first use
// with the SetBarrierParallelism fan-out. Barrier hooks fan fleet-wide
// work (the PeerSet sweep) across it; because the hook runs
// single-threaded between windows, the pool needs no locking of its own.
func (ss *ShardedSimulator) BarrierPool() *WorkerPool {
	if ss.pool == nil {
		ss.pool = NewWorkerPool(ss.barrierWorkers)
	}
	return ss.pool
}
