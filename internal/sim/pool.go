package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// WorkerPool is a reusable fixed-fan-out executor for barrier-time work:
// Do(fn) runs fn(w) once per worker w in [0, Workers()) and returns when
// every invocation has finished. Worker 0 always runs inline on the
// caller; the remaining workers run on persistent goroutines parked
// between calls, started lazily at the first parallel Do — so a pool of
// one worker never starts a goroutine at all, and a pool that is built
// but never used costs nothing.
//
// The pool exists for the conservative barrier's fleet sweeps: spawning
// goroutines per sweep would cost a allocation-and-schedule round trip
// every virtual tick, while parked workers cost one channel send each.
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
	n       int
	fn      func(int)
	wake    []chan struct{}
	done    sync.WaitGroup
	started bool
	closed  bool
	// panics[w] holds worker w's recovered panic from the current Do.
	panics []*WorkerPanic
	// t and h are the window [t, h) whose barrier is running, set by the
	// owning kernel before each barrier hook; NaN outside one.
	t, h Time
}

// NewWorkerPool builds a pool of n workers; n <= 0 means GOMAXPROCS.
func NewWorkerPool(n int) *WorkerPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &WorkerPool{n: n, panics: make([]*WorkerPanic, n), t: math.NaN(), h: math.NaN()}
}

// Workers returns the pool's fan-out.
func (p *WorkerPool) Workers() int { return p.n }

// Do runs fn(w) for every worker w in [0, n) and blocks until all have
// returned. fn must confine its writes to worker-private state.
func (p *WorkerPool) Do(fn func(worker int)) {
	if p.closed {
		panic("sim: Do on a closed WorkerPool")
	}
	p.fn = fn
	if p.n > 1 {
		if !p.started {
			p.started = true
			p.wake = make([]chan struct{}, p.n)
			for w := 1; w < p.n; w++ {
				ch := make(chan struct{}, 1)
				p.wake[w] = ch
				go func(w int, ch chan struct{}) {
					for range ch {
						p.panics[w] = p.run(w)
						p.done.Done()
					}
				}(w, ch)
			}
		}
		p.done.Add(p.n - 1)
		for w := 1; w < p.n; w++ {
			p.wake[w] <- struct{}{}
		}
	}
	p.panics[0] = p.run(0)
	p.done.Wait()
	p.fn = nil
	var failed *WorkerPanic
	for w, pn := range p.panics {
		if failed == nil {
			failed = pn
		}
		p.panics[w] = nil
	}
	if failed != nil {
		panic(failed)
	}
}

// run calls the current fn for worker w, returning a panic it raises as a
// *WorkerPanic instead of unwinding.
func (p *WorkerPool) run(w int) (pn *WorkerPanic) {
	defer func() {
		if r := recover(); r != nil {
			pn = capturePanic(r, fmt.Sprintf("barrier pool worker %d", w), p.t, p.h)
		}
	}()
	p.fn(w)
	return nil
}

// Close parks the pool permanently, stopping its goroutines. Idempotent;
// Do after Close panics.
func (p *WorkerPool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for w := 1; w < len(p.wake); w++ {
		close(p.wake[w])
	}
}

// SetBarrierParallelism sets the size of the kernel's barrier worker
// pool (0 = GOMAXPROCS, the default). It must be called before the first
// BarrierPool call; the pool's fan-out is fixed once built.
func (ss *ShardedSimulator) SetBarrierParallelism(n int) {
	if ss.pool != nil {
		panic(fmt.Sprintf("sim: SetBarrierParallelism(%d) after the barrier pool was built", n))
	}
	ss.barrierWorkers = n
}

// BarrierPool returns the kernel's reusable barrier worker pool, built at
// first use with the SetBarrierParallelism fan-out. Barrier hooks fan
// fleet-wide work (the PeerSet sweep) across it; because the hook runs
// single-threaded between windows, the pool needs no locking of its own.
// Callers that finish with the kernel should Close the pool to release
// its parked goroutines (the fleet experiment defers exactly that).
func (ss *ShardedSimulator) BarrierPool() *WorkerPool {
	if ss.pool == nil {
		ss.pool = NewWorkerPool(ss.barrierWorkers)
	}
	return ss.pool
}
