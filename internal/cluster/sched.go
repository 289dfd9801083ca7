package cluster

import (
	"fmt"
	"sort"

	"failstutter/internal/detect"
	"failstutter/internal/sim"
	"failstutter/internal/stats"
	"failstutter/internal/trace"
)

// Task is one unit of schedulable work. IDs must be dense in [0, n) for a
// task set of n tasks — they index the completion ledger.
type Task struct {
	ID    int
	Units int
}

// UniformTasks builds n tasks of equal size.
func UniformTasks(n, units int) []Task {
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = Task{ID: i, Units: units}
	}
	return ts
}

// Report summarizes one scheduled run.
type Report struct {
	Scheduler      string
	Makespan       sim.Duration
	Tasks          int
	PerWorkerUnits []float64
	// WastedUnits is work executed for tasks whose completion had already
	// been claimed by another replica — the replication cost of hedging
	// and reissue. Executions in flight when the job completes contribute
	// their partial progress.
	WastedUnits float64
	// Duplicates is the number of extra executions launched.
	Duplicates int64
}

func (r Report) String() string {
	return fmt.Sprintf("%s: %d tasks in %.3fs (wasted %.0f units, %d duplicate launches)",
		r.Scheduler, r.Tasks, r.Makespan, r.WastedUnits, r.Duplicates)
}

// Scheduler runs a task set on a pool and reports. Run drives the pool's
// coordinator until every task is claimed and the coordinator drains;
// fault events the caller scheduled beforehand fire during the run. Run
// owns the coordinator's barrier hook for its duration.
type Scheduler interface {
	Name() string
	Run(p *Pool, tasks []Task) Report
}

// engine is the shared dispatch core behind every scheduler: a completion
// ledger with at-most-once claims (the "reconciling properly so as to
// avoid work replication" of Shasha & Turek), per-worker dispatch driven
// by execution-completion events, and policy hooks for where the next
// task comes from. Everything is indexed by dense task ID — no map
// iteration anywhere, so execution order is a pure function of the
// configuration.
type engine struct {
	name string
	p    *Pool

	byID    []Task // tasks indexed by ID
	claimed []bool
	left    int
	wasted  float64
	dups    int64

	// Per-worker execution state.
	cur       []int // task ID in flight, -1 when idle
	execStart []sim.Time
	idle      []bool

	// Central-queue policies (work-queue, hedged, reissue).
	pending []Task
	phead   int

	// Per-worker-queue policies (static/gauged partition, detect-avoid).
	queues [][]Task
	qhead  []int

	// Speculation (hedged, reissue).
	cloneWhenIdle bool
	maxClones     int
	clones        []int
	firstStart    []sim.Time // first dispatch time per task, -1 before

	// durations holds winning execution times for the reissue monitor's
	// median; medScratch is its reusable in-place-median copy.
	durations  []float64
	medScratch []float64

	// next returns worker w's next task, or ok=false to idle the worker.
	next func(w int) (Task, bool)
	// monitor, when non-nil, runs every monitorPeriod of virtual time
	// until the job completes (reissue timeouts, detect-avoid sampling),
	// with the tick's virtual time: the barrier replays the ticks in time
	// order against the completion stream.
	monitor       func(now sim.Time)
	monitorPeriod sim.Duration

	// Barrier-engine state (see engine.go): the completion stream,
	// per-shard cut-waste accumulators, per-worker throughput samples
	// taken at tick times on each worker's own shard (when needSample),
	// the next unprocessed monitor tick, and the barrier's current event
	// time and dispatch horizon.
	comp       *completions
	cutWaste   []float64
	sampled    []float64
	needSample bool
	nextMon    sim.Time
	curNow     sim.Time
	hNow       sim.Time

	startUnits []float64
	start      sim.Time
	doneAt     sim.Time
	finished   bool

	// tr, when non-nil, records the scheduler's duplication decisions
	// (reissue, clone, migrate) as instants on the "sched" track.
	tr      *trace.Tracer
	trTrack trace.TrackID
}

func newEngine(name string, p *Pool, tasks []Task) *engine {
	n := len(tasks)
	e := &engine{
		name:       name,
		p:          p,
		byID:       make([]Task, n),
		claimed:    make([]bool, n),
		left:       n,
		cur:        make([]int, p.Size()),
		execStart:  make([]sim.Time, p.Size()),
		idle:       make([]bool, p.Size()),
		clones:     make([]int, n),
		firstStart: make([]sim.Time, n),
	}
	for _, t := range tasks {
		if t.ID < 0 || t.ID >= n || t.Units < 1 {
			panic(fmt.Sprintf("cluster: invalid task %+v in a set of %d", t, n))
		}
		e.byID[t.ID] = t
	}
	for i := range e.cur {
		e.cur[i] = -1
	}
	for i := range e.firstStart {
		e.firstStart[i] = -1
	}
	if t := p.tracer; t != nil {
		e.tr = t
		e.trTrack = t.Track("sched")
	}
	return e
}

// instant records a scheduler decision on the "sched" track when tracing
// is on. Decisions are made at the barrier, where no kernel clock is
// authoritative; curNow carries the event time being settled.
func (e *engine) instant(name string) {
	if e.tr != nil {
		e.tr.Instant(e.trTrack, name, "sched", e.curNow)
	}
}

// contiguousQueues splits tasks into per-worker contiguous equal-count
// chunks.
func contiguousQueues(tasks []Task, n int) [][]Task {
	qs := make([][]Task, n)
	for i := 0; i < n; i++ {
		lo := i * len(tasks) / n
		hi := (i + 1) * len(tasks) / n
		qs[i] = append([]Task(nil), tasks[lo:hi]...)
	}
	return qs
}

// popOwn pops worker w's next unclaimed task from its own queue.
func (e *engine) popOwn(w int) (Task, bool) {
	for e.qhead[w] < len(e.queues[w]) {
		t := e.queues[w][e.qhead[w]]
		e.qhead[w]++
		if e.claimed[t.ID] {
			continue
		}
		return t, true
	}
	return Task{}, false
}

// popPending pops the next unclaimed task from the central queue.
func (e *engine) popPending() (Task, bool) {
	for e.phead < len(e.pending) {
		t := e.pending[e.phead]
		e.phead++
		if e.claimed[t.ID] {
			continue
		}
		return t, true
	}
	return Task{}, false
}

// cloneOldest picks the oldest-started unclaimed in-flight task with
// clone budget remaining (ties broken by task ID), charging the budget.
func (e *engine) cloneOldest() (Task, bool) {
	best := -1
	for id := range e.byID {
		if e.firstStart[id] < 0 || e.claimed[id] || e.clones[id] >= e.maxClones {
			continue
		}
		if best < 0 || e.firstStart[id] < e.firstStart[best] {
			best = id
		}
	}
	if best < 0 {
		return Task{}, false
	}
	e.clones[best]++
	e.dups++
	e.instant("clone")
	return e.byID[best], true
}

// meanUnits is the average task size, the natural time scale for probe
// sizes and monitor periods.
func meanUnits(tasks []Task) float64 {
	if len(tasks) == 0 {
		return 1
	}
	total := 0.0
	for _, t := range tasks {
		total += float64(t.Units)
	}
	return total / float64(len(tasks))
}

// StaticPartition divides the task list into contiguous equal-count
// chunks, one per worker, with no later rebalancing: the fail-stop-design
// baseline whose "parallel-performance assumption" the paper's
// introduction criticizes.
type StaticPartition struct{}

// Name implements Scheduler.
func (StaticPartition) Name() string { return "static-partition" }

// Run implements Scheduler.
func (StaticPartition) Run(p *Pool, tasks []Task) Report {
	e := newEngine("static-partition", p, tasks)
	e.queues = contiguousQueues(tasks, p.Size())
	e.qhead = make([]int, p.Size())
	e.next = e.popOwn
	return e.run(p.ss.Now())
}

// GaugedPartition is the scenario-2 analogue for compute: measure each
// worker's speed once with a probe task, then partition proportionally.
// Correct for static speed differences, broken by anything dynamic.
type GaugedPartition struct {
	// ProbeUnits is the per-worker microbenchmark size (default: a
	// quarter of the mean task size, at least one unit).
	ProbeUnits int
}

// Name implements Scheduler.
func (GaugedPartition) Name() string { return "gauged-partition" }

// Run implements Scheduler.
func (g GaugedPartition) Run(p *Pool, tasks []Task) Report {
	probe := g.ProbeUnits
	if probe <= 0 {
		probe = int(meanUnits(tasks) / 4)
		if probe < 1 {
			probe = 1
		}
	}
	// Gauge all workers concurrently; probe work is real work the gauge
	// pays for (it counts toward units done, not toward the makespan —
	// the job is timed from the post-gauge partition, as an install-time
	// microbenchmark would be).
	n := p.Size()
	speeds, startAt := gauge(p, probe)

	// Proportional contiguous split by measured speed.
	total := 0.0
	for _, sp := range speeds {
		total += sp
	}
	e := newEngine("gauged-partition", p, tasks)
	e.queues = make([][]Task, n)
	e.qhead = make([]int, n)
	idx := 0
	for i := range p.workers {
		count := int(float64(len(tasks)) * speeds[i] / total)
		if i == n-1 || idx+count > len(tasks) {
			count = len(tasks) - idx
		}
		e.queues[i] = append([]Task(nil), tasks[idx:idx+count]...)
		idx += count
	}
	e.next = e.popOwn
	// The gauge stopped the coordinator mid-stream; the job starts at the
	// horizon of the window that observed the last probe finish — the
	// placement-invariant "instant the gauge ends".
	return e.run(startAt)
}

// WorkQueue is the River-style central queue: every idle worker pulls the
// next task, so placement follows current rates automatically. No
// duplication: a stalled worker still strands the one task it holds.
type WorkQueue struct{}

// Name implements Scheduler.
func (WorkQueue) Name() string { return "work-queue" }

// Run implements Scheduler.
func (WorkQueue) Run(p *Pool, tasks []Task) Report {
	e := newEngine("work-queue", p, tasks)
	e.pending = tasks
	e.next = func(w int) (Task, bool) { return e.popPending() }
	return e.run(p.ss.Now())
}

// speculative is the shared policy behind Hedged and Reissue: a pull
// queue plus a duplication rule. cloneWhenIdle clones the oldest
// unclaimed in-flight task when a worker has nothing else to do (hedged
// tail execution); a positive timeoutFactor additionally monitors
// in-flight ages and requeues tasks exceeding factor x the median
// completed duration (Shasha-Turek slow-down reissue). maxClones bounds
// duplication per task.
type speculative struct {
	name          string
	timeoutFactor float64
	checkEvery    sim.Duration
	maxClones     int
}

func (sp speculative) Run(p *Pool, tasks []Task) Report {
	e := newEngine(sp.name, p, tasks)
	e.pending = append([]Task(nil), tasks...)
	e.cloneWhenIdle = true
	e.maxClones = sp.maxClones
	e.next = func(w int) (Task, bool) {
		if t, ok := e.popPending(); ok {
			return t, true
		}
		return e.cloneOldest()
	}
	if sp.timeoutFactor > 0 {
		period := sp.checkEvery
		if period <= 0 {
			period = meanUnits(tasks) * p.quantum / 4
		}
		e.monitorPeriod = period
		e.medScratch = make([]float64, 0, len(tasks))
		e.monitor = func(now sim.Time) {
			if len(e.durations) < 3 {
				return
			}
			med := stats.MedianInPlace(append(e.medScratch[:0], e.durations...))
			limit := sp.timeoutFactor * med
			requeued := false
			for id := range e.byID {
				if e.firstStart[id] < 0 || e.claimed[id] || e.clones[id] >= e.maxClones {
					continue
				}
				if now-e.firstStart[id] > limit {
					e.clones[id]++
					e.dups++
					e.pending = append(e.pending, e.byID[id])
					e.instant("reissue")
					requeued = true
				}
			}
			if requeued {
				e.wake()
			}
		}
	}
	return e.run(p.ss.Now())
}

// Hedged is a work queue with tail cloning: when the queue is empty, idle
// workers re-execute the oldest unclaimed in-flight task, bounding the
// job on a straggler's last task. MaxClones bounds per-task duplication
// (default 1 extra copy).
type Hedged struct {
	MaxClones int
}

// Name implements Scheduler.
func (Hedged) Name() string { return "hedged" }

// Run implements Scheduler.
func (h Hedged) Run(p *Pool, tasks []Task) Report {
	mc := h.MaxClones
	if mc <= 0 {
		mc = 1
	}
	return speculative{name: "hedged", maxClones: mc}.Run(p, tasks)
}

// Reissue implements Shasha & Turek's response to slow-down failures:
// monitor in-flight executions, and when one exceeds TimeoutFactor x the
// median completed duration, issue the work again elsewhere; the
// completion claim reconciles duplicates. Unlike Hedged it acts even
// while other work remains, trading duplication for tail latency.
type Reissue struct {
	TimeoutFactor float64
	MaxClones     int
	// CheckEvery is the monitor's virtual-time period (default: a quarter
	// of the mean task's nominal duration).
	CheckEvery sim.Duration
}

// Name implements Scheduler.
func (Reissue) Name() string { return "reissue" }

// Run implements Scheduler.
func (r Reissue) Run(p *Pool, tasks []Task) Report {
	tf := r.TimeoutFactor
	if tf <= 0 {
		tf = 3
	}
	mc := r.MaxClones
	if mc <= 0 {
		mc = 1
	}
	return speculative{
		name: "reissue", timeoutFactor: tf, checkEvery: r.CheckEvery, maxClones: mc,
	}.Run(p, tasks)
}

// DetectAvoid is the fail-stutter-model scheduler: static per-worker
// queues (the low-overhead design), plus a peer-relative detector
// sampling each worker's throughput; when a worker is flagged as
// performance-faulty its backlog migrates to healthy workers. It
// demonstrates the model's detect -> notify -> adapt loop rather than
// relying on pull-based placement.
type DetectAvoid struct {
	// SampleEvery is the detector's virtual-time sampling period
	// (default: a quarter of the mean task's nominal duration).
	SampleEvery sim.Duration
	// Threshold is the peer-relative rate fraction below which a worker
	// is flagged (default 0.5).
	Threshold float64
	// Audit, when non-nil, logs every flag transition with its
	// peer-relative evidence via detect.Audited wrappers.
	Audit *trace.AuditLog
}

// Name implements Scheduler.
func (DetectAvoid) Name() string { return "detect-avoid" }

// Run implements Scheduler.
func (d DetectAvoid) Run(p *Pool, tasks []Task) Report {
	thr := d.Threshold
	if thr <= 0 {
		thr = 0.5
	}
	sample := d.SampleEvery
	if sample <= 0 {
		sample = meanUnits(tasks) * p.quantum / 4
	}
	n := p.Size()
	e := newEngine("detect-avoid", p, tasks)
	e.queues = contiguousQueues(tasks, n)
	e.qhead = make([]int, n)
	e.next = e.popOwn

	flagged := make([]bool, n)
	slowStreak := make([]int, n)
	last := snapshotUnits(p)
	rates := make([]float64, n)
	medScratch := make([]float64, n)

	// Optional audit: a detect.Audited wrapper per worker over the live
	// flag, logging nominal <-> perf-faulty transitions with the sampled
	// rate and fleet median as evidence.
	var audDet []*flagDetector
	var audited []*detect.Audited
	if d.Audit != nil {
		audDet = make([]*flagDetector, n)
		audited = make([]*detect.Audited, n)
		for i := 0; i < n; i++ {
			audDet[i] = &flagDetector{flagged: &flagged[i], threshold: thr}
			audited[i] = detect.NewAudited(audDet[i], d.Audit, fmt.Sprintf("worker-%d", i))
		}
	}

	sweep := func(med float64) {
		for i := range rates {
			if flagged[i] {
				continue
			}
			// Require consecutive slow samples with a real backlog before
			// flagging: a single divergent sample (and workers that simply
			// finished) must not trigger migration.
			if rates[i] >= thr*med || e.qhead[i] == len(e.queues[i]) {
				slowStreak[i] = 0
				continue
			}
			slowStreak[i]++
			if slowStreak[i] < 2 {
				continue
			}
			flagged[i] = true
			// Migrate the stutterer's backlog to healthy workers,
			// round-robin. With no healthy destination the backlog stays
			// put — a degraded worker is still better than no worker.
			var dsts []int
			for dst := 0; dst < n; dst++ {
				if dst != i && !flagged[dst] {
					dsts = append(dsts, dst)
				}
			}
			if len(dsts) > 0 {
				backlog := e.queues[i][e.qhead[i]:]
				e.queues[i] = e.queues[i][:e.qhead[i]]
				for j, t := range backlog {
					dst := dsts[j%len(dsts)]
					e.queues[dst] = append(e.queues[dst], t)
				}
				e.instant("migrate")
				e.wake()
			}
			return // at most one migration per tick keeps this simple
		}
	}

	e.monitorPeriod = sample
	e.needSample = true
	e.monitor = func(now sim.Time) {
		for i := range p.workers {
			cur := e.sampled[i]
			rates[i] = cur - last[i]
			last[i] = cur
		}
		// rates must stay index-aligned with the workers below, so the
		// in-place median works on a reused scratch copy.
		med := stats.MedianInPlace(medScratch[:copy(medScratch, rates)])
		if med > 0 {
			sweep(med)
		}
		if audited != nil {
			for i, a := range audited {
				audDet[i].med = med
				a.Observe(now, rates[i])
			}
		}
	}
	return e.run(p.ss.Now())
}

// Schedulers returns the standard comparison set used by the experiments,
// ordered from least to most fail-stutter aware.
func Schedulers() []Scheduler {
	return []Scheduler{
		StaticPartition{},
		GaugedPartition{},
		WorkQueue{},
		Hedged{},
		Reissue{},
		DetectAvoid{},
	}
}

// SortReports orders reports by makespan, fastest first — a convenience
// for experiment tables.
func SortReports(rs []Report) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Makespan < rs[j].Makespan })
}
