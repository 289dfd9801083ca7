package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"failstutter/internal/sim"
)

// This file is the barrier engine every cluster job runs on.
//
// A scheduler job is a chain of completion events — a worker finishes, the
// engine claims its task and hands it the next one. The engine's ledger is
// global state no window may touch, so the chain is split at the
// coordinator's barrier:
//
//   - during a window, a finishing worker only appends (time, worker) to
//     its own shard's completion buffer — no locks, no shared state;
//   - at the barrier, the buffers are merged and settled in (time, worker)
//     order — a placement-invariant total order — claiming tasks, charging
//     waste, and running any monitor ticks that fell inside the window in
//     time order with the completions;
//   - every follow-up dispatch lands at the window horizon, the earliest
//     instant the barrier may schedule into, on the target worker's own
//     kernel.
//
// A follow-up dispatch therefore starts at most one lookahead after the
// completion that caused it — a bounded, deterministic skew — in exchange
// for every window running all shards in parallel. Monitors ride a real
// event chain on shard 0 so windows keep coming while every pending
// completion sits inside a stalled station, and when the job finishes
// mid-window the still-running executions are cut at the horizon, their
// partial progress charged to waste shard-locally.

// completionRec is one execution completion recorded shard-locally during
// a window: the event time and the finishing worker. Worker IDs never
// depend on the partition, so (at, w) orders the merged stream identically
// at every shard count.
type completionRec struct {
	at sim.Time
	w  int
}

// completions is a job's completion stream: one buffer per shard, appended
// only by that shard's workers during a window, and a reused merge buffer.
type completions struct {
	byShard [][]completionRec
	merged  []completionRec
}

func newCompletions(shards int) *completions {
	return &completions{byShard: make([][]completionRec, shards)}
}

// record is the workers' finish hook: it appends the completion to the
// worker's home-shard buffer.
func (c *completions) record(w *Worker) {
	c.byShard[w.shard] = append(c.byShard[w.shard], completionRec{at: w.sim.Now(), w: w.id})
}

// drain empties the shard buffers and returns the window's completions in
// (time, worker) order. The slice is reused by the next drain.
func (c *completions) drain() []completionRec {
	m := c.merged[:0]
	for i, b := range c.byShard {
		m = append(m, b...)
		c.byShard[i] = b[:0]
	}
	slices.SortFunc(m, func(a, b completionRec) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.w, b.w)
	})
	c.merged = m
	return m
}

// drive runs one job on the pool's coordinator: hook becomes the barrier
// hook, every worker's completions go to finish, seed starts the job, and
// the coordinator runs until it drains or the hook stops it; hook and
// finish are removed afterwards. The hook is installed first, so a
// coordinator whose barrier another component already drives panics
// before the pool is touched.
func (p *Pool) drive(finish func(*Worker), hook func(horizon sim.Time), seed func()) {
	p.ss.SetBarrier(hook)
	for _, w := range p.workers {
		w.finish = finish
	}
	seed()
	p.ss.Run()
	p.ss.SetBarrier(nil)
	for _, w := range p.workers {
		w.finish = nil
	}
}

// run drives the job through the coordinator's safe windows, starting (and
// timing the makespan) at start — the current time for an immediate job, a
// window horizon for one deferred by a gauge phase.
func (e *engine) run(start sim.Time) Report {
	ss := e.p.ss
	e.start = start
	e.startUnits = snapshotUnits(e.p)
	if e.left == 0 {
		e.doneAt = start
		e.finished = true
	} else {
		e.comp = newCompletions(ss.Shards())
		e.cutWaste = make([]float64, ss.Shards())
		e.p.drive(e.comp.record, e.barrierSettle, func() { e.seed(start) })
		if !e.finished {
			panic(fmt.Sprintf(
				"cluster: %s job stalled with %d of %d tasks unclaimed (a fully stalled worker holds work no policy will replicate)",
				e.name, e.left, len(e.byID)))
		}
		for _, wu := range e.cutWaste {
			e.wasted += wu
		}
	}
	return Report{
		Scheduler:      e.name,
		Makespan:       e.doneAt - e.start,
		Tasks:          len(e.byID),
		PerWorkerUnits: perWorkerUnits(e.p, e.startUnits),
		WastedUnits:    e.wasted,
		Duplicates:     e.dups,
	}
}

// seed dispatches every worker at start and arms the monitor and sampling
// event chains.
func (e *engine) seed(start sim.Time) {
	if e.needSample {
		e.sampled = snapshotUnits(e.p)
	}
	e.curNow = start
	for i := range e.p.workers {
		e.dispatchAt(i, start)
	}
	if e.monitor != nil {
		e.nextMon = start + e.monitorPeriod
		// The monitor must be a real event chain — on shard 0, the
		// conventional home for coordinator bookkeeping — not just barrier
		// arithmetic: when every pending completion sits in a stalled
		// station the event queue would otherwise drain and no further
		// window (hence no further tick) would ever run. The chain's
		// events carry no logic; the barrier replays the tick instants in
		// order against the completion stream.
		ctrl := e.p.ss.Shard(0)
		var tick func()
		tick = func() {
			if e.finished {
				return
			}
			ctrl.After(e.monitorPeriod, tick)
		}
		ctrl.At(e.nextMon, tick)
	}
	if e.needSample {
		// Per-worker throughput samples are taken at tick times on each
		// worker's own shard: reading UnitsDone cross-shard at the barrier
		// would observe however far that shard happened to run its window
		// — a placement-dependent value.
		for _, w := range e.p.workers {
			w := w
			var tick func()
			tick = func() {
				if e.finished {
					return
				}
				e.sampled[w.id] = w.UnitsDone()
				w.sim.After(e.monitorPeriod, tick)
			}
			w.sim.At(start+e.monitorPeriod, tick)
		}
	}
}

// barrierSettle runs after every safe window: it settles the window's
// completions and monitor ticks in one time-ordered stream, completions
// first on a tie, so a completion is claimed before a monitor tick at the
// same instant can reissue it.
func (e *engine) barrierSettle(h sim.Time) {
	e.hNow = h
	merged := e.comp.drain()
	i := 0
	for {
		monPending := e.monitor != nil && !e.finished && e.nextMon < h
		switch {
		case i < len(merged) && (!monPending || merged[i].at <= e.nextMon):
			e.settleCompletion(merged[i], h)
			i++
		case monPending:
			e.curNow = e.nextMon
			e.monitor(e.nextMon)
			e.nextMon += e.monitorPeriod
		default:
			return
		}
	}
}

// settleCompletion applies one merged completion record: claim or waste,
// then re-dispatch at the horizon. Records settled after the job finished
// — executions that completed later in the finish window — charge their
// full size to waste.
func (e *engine) settleCompletion(rec completionRec, h sim.Time) {
	id := e.cur[rec.w]
	e.cur[rec.w] = -1
	e.curNow = rec.at
	if e.finished {
		e.wasted += float64(e.byID[id].Units)
		return
	}
	if !e.claimed[id] {
		e.claimed[id] = true
		e.left--
		e.durations = append(e.durations, rec.at-e.execStart[rec.w])
		if e.left == 0 {
			e.complete(rec.at, h)
			return
		}
	} else {
		e.wasted += float64(e.byID[id].Units)
	}
	e.dispatchAt(rec.w, h)
}

// complete records the finish and cuts every still-running execution at
// the horizon: a cut event on the worker's own kernel cancels the
// in-flight request, credits its partial progress to the worker and
// charges it to a shard-local waste accumulator, summed after the run.
func (e *engine) complete(at, h sim.Time) {
	e.doneAt = at
	e.finished = true
	for i, w := range e.p.workers {
		if e.cur[i] < 0 {
			continue
		}
		w := w
		w.sim.At(h, func() {
			if served, ok := w.st.CancelCurrent(); ok {
				w.doneUnits += served
				e.cutWaste[w.shard] += served
			}
		})
	}
}

// dispatchAt hands worker i its next task per the policy, starting the
// execution at the given instant, or idles the worker.
func (e *engine) dispatchAt(i int, at sim.Time) {
	if e.finished {
		return
	}
	t, ok := e.next(i)
	if !ok {
		e.idle[i] = true
		return
	}
	e.idle[i] = false
	e.cur[i] = t.ID
	e.execStart[i] = at
	if e.firstStart[t.ID] < 0 {
		e.firstStart[t.ID] = at
	}
	e.p.workers[i].execAt(at, float64(t.Units))
}

// wake re-dispatches idle workers (lowest id first) at the window horizon
// after new work appears at the barrier: a monitor requeue or a backlog
// migration.
func (e *engine) wake() {
	for i := range e.p.workers {
		if e.finished {
			return
		}
		if e.idle[i] {
			e.dispatchAt(i, e.hNow)
		}
	}
}

// gauge is GaugedPartition's probe phase: probe every worker, record each
// speed on the worker's own shard, and stop the coordinator at the horizon
// of the window that saw the last probe finish. That horizon — a
// placement-invariant instant — is returned as the main job's start time;
// fault events the caller scheduled for later stay queued.
func gauge(p *Pool, probe int) ([]float64, sim.Time) {
	ss := p.ss
	n := p.Size()
	speeds := make([]float64, n)
	fin := make([]bool, n)
	t0 := ss.Now()
	var stopAt sim.Time
	stopped := false
	finish := func(w *Worker) {
		speeds[w.id] = float64(probe) / (w.sim.Now() - t0)
		fin[w.id] = true
	}
	hook := func(h sim.Time) {
		if stopped {
			return
		}
		for _, f := range fin {
			if !f {
				return
			}
		}
		stopped = true
		stopAt = h
		ss.Stop()
	}
	p.drive(finish, hook, func() {
		for _, w := range p.workers {
			w.exec(float64(probe))
		}
	})
	if !stopped {
		panic("cluster: gauged-partition probe stalled (a probed worker never finished)")
	}
	return speeds, stopAt
}
