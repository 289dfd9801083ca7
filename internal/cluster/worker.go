// Package cluster implements a distributed runtime exhibiting and
// tolerating fail-stutter faults: a pool of workers with injectable
// per-worker slowdowns and stalls, six scheduling policies of increasing
// stutter-awareness (static partition, gauged partition, pull-based work
// queue, hedged tail execution, Shasha-Turek slow-down reissue, and
// detect-and-avoid migration), a bulk-synchronous computation whose
// barriers pay the straggler tax, and a replicated hash table whose nodes
// suffer garbage-collection pauses, after Gribble et al.
//
// The runtime executes on the internal/sim sharded virtual-time kernel:
// each worker is a queueing Station on its home shard whose speed
// multiplier is the injection point for CPU hogs, stutter, and crashes;
// completion claims and superstep barriers are settled at the
// coordinator's barrier (engine.go), and replication acks are simulator
// events. Runs are therefore deterministic — byte-identical for a given
// configuration at every shard count — and scale to thousands of workers
// without burning an OS thread per node.
package cluster

import (
	"fmt"

	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// Worker is one compute node: it executes abstract work units, each
// costing quantum/speed of virtual time. Speed is adjustable at any
// moment — the injection point for CPU hogs, stutter, and crashes (speed
// permanently 0 is indistinguishable from a very long stall, matching the
// model's view that a stall beyond T *is* a failure).
type Worker struct {
	id int
	st *sim.Station

	// sim is the kernel the worker's station runs on — its home shard;
	// shard is that shard's index.
	sim   *sim.Simulator
	shard int

	// req is the single reusable request for this worker's executions: a
	// worker serves one task at a time, so the steady-state step path
	// (exec -> station completion -> dispatch -> exec) allocates nothing.
	req sim.Request

	// doneUnits accumulates the sizes of completed executions; tasksDone
	// counts them.
	doneUnits float64
	tasksDone int64

	// finish, when non-nil, is invoked each time an execution completes —
	// the dispatch hook a running job installs.
	finish func(*Worker)
}

func newWorker(s *sim.Simulator, id int, quantum sim.Duration) *Worker {
	if quantum <= 0 {
		panic("cluster: quantum must be positive")
	}
	w := &Worker{id: id, sim: s}
	w.st = sim.NewStation(s, fmt.Sprintf("worker-%d", id), 1/quantum)
	w.req.OnDone = w.reqDone
	return w
}

// ID returns the worker's index.
func (w *Worker) ID() int { return w.id }

// Speed returns the current speed multiplier.
func (w *Worker) Speed() float64 { return w.st.Multiplier() }

// SetSpeed sets the speed multiplier; zero stalls the worker, preserving
// progress on the execution in flight. Negative or non-finite speeds
// panic.
func (w *Worker) SetSpeed(s float64) { w.st.SetMultiplier(s) }

// UnitsDone returns the cumulative work units executed, including partial
// progress on the execution in flight — the smooth counter detectors
// probe.
func (w *Worker) UnitsDone() float64 { return w.doneUnits + w.st.ServedInCurrent() }

// TasksDone returns completed executions (including executions that later
// lost the completion race).
func (w *Worker) TasksDone() int64 { return w.tasksDone }

// Station returns the worker's underlying queueing station.
func (w *Worker) Station() *sim.Station { return w.st }

// Busy reports whether an execution is in flight.
func (w *Worker) Busy() bool { return w.st.InService() != nil }

// exec starts an execution of the given number of units. The worker must
// be idle: jobs dispatch one task at a time per worker.
func (w *Worker) exec(units float64) {
	if w.st.InService() != nil {
		panic(fmt.Sprintf("cluster: worker %d dispatched while busy", w.id))
	}
	w.req.Size = units
	w.st.Submit(&w.req)
}

// execAt starts an execution of the given number of units at the given
// instant: immediately when the worker's clock is already there (a job's
// first dispatch), via an event on the worker's own kernel otherwise (a
// barrier dispatch at the window horizon).
func (w *Worker) execAt(at sim.Time, units float64) {
	if at > w.sim.Now() {
		w.sim.At(at, func() { w.exec(units) })
		return
	}
	w.exec(units)
}

// reqDone is the station completion callback, bound once at construction.
func (w *Worker) reqDone(r *sim.Request) {
	w.doneUnits += r.Size
	w.tasksDone++
	if w.finish != nil {
		w.finish(w)
	}
}

// Pool is a set of workers sharing one work-unit quantum, spread across
// the shards of a ShardedSimulator. Jobs running on it go through the
// barrier engine: completions are recorded shard-locally during each safe
// window and settled — claims, waste, re-dispatch — at the barrier in
// (time, worker) order, so results are byte-identical at every shard
// count. A 1-shard coordinator is the degenerate, single-kernel case.
type Pool struct {
	ss      *sim.ShardedSimulator
	workers []*Worker
	quantum sim.Duration
	// tracer, when non-nil, also records job-level activity (BSP
	// supersteps, scheduler reissue/clone/migrate decisions) alongside the
	// per-worker station spans.
	tracer *trace.Tracer
}

// NewPool builds n workers on the coordinator with the given quantum (the
// virtual time one work unit costs at speed 1), placing worker i on the
// shard its identity ("worker-<i>") hashes to.
func NewPool(ss *sim.ShardedSimulator, n int, quantum sim.Duration) *Pool {
	if n < 1 {
		panic("cluster: pool needs at least one worker")
	}
	p := &Pool{ss: ss, quantum: quantum}
	for i := 0; i < n; i++ {
		home := ss.ShardFor(fmt.Sprintf("worker-%d", i))
		w := newWorker(ss.Shard(home), i, quantum)
		w.shard = home
		p.workers = append(p.workers, w)
	}
	return p
}

// Workers returns the pool members.
func (p *Pool) Workers() []*Worker { return p.workers }

// SetTracer attaches a span tracer to every worker's station, recording
// each execution's queue/service intervals on a "worker-<id>" track in
// virtual time, and to the pool itself, so jobs running on it (BSP,
// schedulers) emit their own spans. A nil tracer detaches.
//
// When the coordinator has per-shard collectors installed
// (sim.ShardedSimulator.SetTelemetry), the attachment redirects: each
// worker's station records into its home shard's collector — the only
// placement where window-time appends stay race-free and lock-free — and
// the pool's own job-level spans (BSP supersteps, scheduler decisions,
// all recorded single-threaded in barrier context) land on shard 0's
// collector. MergeTelemetry then folds everything back into the tracer
// passed here.
func (p *Pool) SetTracer(t *trace.Tracer) {
	if t != nil && p.ss.ShardTracer(0) != nil {
		p.tracer = p.ss.ShardTracer(0)
		for _, w := range p.workers {
			w.st.SetTracer(p.ss.ShardTracer(w.shard))
		}
		return
	}
	p.tracer = t
	for _, w := range p.workers {
		w.st.SetTracer(t)
	}
}

// Tracer returns the attached span tracer, or nil when tracing is off.
func (p *Pool) Tracer() *trace.Tracer { return p.tracer }

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

// Quantum returns the pool's work-unit quantum.
func (p *Pool) Quantum() sim.Duration { return p.quantum }

// Hog degrades worker i to the given speed for the given virtual
// duration, then restores it — the "competing job" interference of the
// survey's NOW-Sort observation. The restore is a simulator event.
func (p *Pool) Hog(i int, speed float64, d sim.Duration) {
	w := p.workers[i]
	w.SetSpeed(speed)
	w.sim.After(d, func() { w.SetSpeed(1) })
}

// SetSpeedAt schedules a speed change for worker i at the given virtual
// time on the worker's own kernel — the one place such an injection is
// safe, since a foreign shard's clock must not be used to time another
// worker's fault.
func (p *Pool) SetSpeedAt(i int, at sim.Time, speed float64) {
	w := p.workers[i]
	w.sim.At(at, func() { w.SetSpeed(speed) })
}

// snapshotUnits captures every worker's cumulative units.
func snapshotUnits(p *Pool) []float64 {
	out := make([]float64, p.Size())
	for i, w := range p.workers {
		out[i] = w.UnitsDone()
	}
	return out
}

// perWorkerUnits returns the units each worker executed since the
// snapshot.
func perWorkerUnits(p *Pool, before []float64) []float64 {
	out := make([]float64, p.Size())
	for i, w := range p.workers {
		out[i] = w.UnitsDone() - before[i]
	}
	return out
}
