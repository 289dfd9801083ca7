package cluster

import (
	"math"
	"strings"
	"testing"

	"failstutter/internal/sim"
)

func sumUnits(r Report) float64 {
	var s float64
	for _, u := range r.PerWorkerUnits {
		s += u
	}
	return s
}

func TestUniformTasks(t *testing.T) {
	ts := UniformTasks(5, 7)
	if len(ts) != 5 {
		t.Fatalf("len = %d", len(ts))
	}
	for i, task := range ts {
		if task.ID != i || task.Units != 7 {
			t.Fatalf("task %d = %+v", i, task)
		}
	}
}

func TestStaticPartitionCompletesAll(t *testing.T) {
	r := acrossShards(t, func(ss *sim.ShardedSimulator) Report {
		return StaticPartition{}.Run(NewPool(ss, 4, q), UniformTasks(40, 5))
	})
	if r.Tasks != 40 {
		t.Fatalf("tasks = %d", r.Tasks)
	}
	if got := sumUnits(r); got != 200 {
		t.Fatalf("units executed = %v, want 200", got)
	}
	if r.WastedUnits != 0 || r.Duplicates != 0 {
		t.Fatalf("static run wasted %v / dup %d", r.WastedUnits, r.Duplicates)
	}
	// 10 tasks of 5 units per worker, all healthy: 50q of work plus 9
	// barrier dispatches, each landing exactly one lookahead after the
	// completion that opened its window.
	if want := 50*q + 9*L; !near(r.Makespan, want) {
		t.Fatalf("makespan = %v, want %v", r.Makespan, want)
	}
}

func TestWorkQueueCompletesAll(t *testing.T) {
	r := acrossShards(t, func(ss *sim.ShardedSimulator) Report {
		return WorkQueue{}.Run(NewPool(ss, 4, q), UniformTasks(40, 5))
	})
	if got := sumUnits(r); got != 200 {
		t.Fatalf("units executed = %v, want 200", got)
	}
}

// The paper's headline compute claim (NOW-Sort, E15): one slow node
// roughly halves a statically partitioned job, while a pull-based design
// sheds the imbalance.
func TestWorkQueueBeatsStaticUnderSlowWorker(t *testing.T) {
	run := func(sched Scheduler) sim.Duration {
		return acrossShards(t, func(ss *sim.ShardedSimulator) Report {
			p := NewPool(ss, 4, q)
			p.Workers()[0].SetSpeed(0.2)
			return sched.Run(p, UniformTasks(60, 40))
		}).Makespan
	}
	static := run(StaticPartition{})
	queue := run(WorkQueue{})
	// Static is gated by the slow worker's full share: 15 tasks x 40
	// units / 0.2 speed, plus its 14 barrier dispatches at one lookahead
	// each.
	if want := 15*40*q/0.2 + 14*L; !near(static, want) {
		t.Fatalf("static makespan = %v, want %v", static, want)
	}
	if queue*2 > static {
		t.Fatalf("work queue %v not clearly faster than static %v under a slow worker",
			queue, static)
	}
}

func TestGaugedPartitionHandlesStaticSkew(t *testing.T) {
	run := func(sched Scheduler) sim.Duration {
		return acrossShards(t, func(ss *sim.ShardedSimulator) Report {
			p := NewPool(ss, 4, q)
			p.Workers()[0].SetSpeed(0.25)
			return sched.Run(p, UniformTasks(60, 40))
		}).Makespan
	}
	static := run(StaticPartition{})
	gauged := run(GaugedPartition{ProbeUnits: 40})
	if gauged*3 > static*2 {
		t.Fatalf("gauged %v not clearly faster than static %v under static skew",
			gauged, static)
	}
}

func TestHedgedClonesTail(t *testing.T) {
	// One worker stalls completely mid-run. Hedged must still finish: the
	// stranded task is cloned elsewhere and the stalled execution's
	// partial progress is flushed to waste at completion.
	r := acrossShards(t, func(ss *sim.ShardedSimulator) Report {
		p := NewPool(ss, 4, q)
		p.SetSpeedAt(0, 5e-3, 0)
		return Hedged{}.Run(p, UniformTasks(60, 10))
	})
	if r.Duplicates == 0 {
		t.Fatal("hedged run cloned nothing despite a stalled worker")
	}
	if got, want := sumUnits(r), 600+r.WastedUnits; math.Abs(got-want) > 1e-6 {
		t.Fatalf("executed %v != required 600 + wasted %v", got, r.WastedUnits)
	}
}

func TestReissueBeatsWorkQueueUnderMidJobStall(t *testing.T) {
	run := func(sched Scheduler) sim.Duration {
		return acrossShards(t, func(ss *sim.ShardedSimulator) Report {
			p := NewPool(ss, 4, q)
			// Worker 0 drops to 2% speed 10 virtual ms in and stays
			// degraded.
			p.SetSpeedAt(0, 10e-3, 0.02)
			return sched.Run(p, UniformTasks(60, 20))
		}).Makespan
	}
	queue := run(WorkQueue{})
	reissue := run(Reissue{TimeoutFactor: 3})
	if reissue*3 > queue*2 {
		t.Fatalf("reissue %v not clearly faster than work queue %v under a degraded straggler",
			reissue, queue)
	}
}

func TestReissueExactlyOnceAccounting(t *testing.T) {
	r := acrossShards(t, func(ss *sim.ShardedSimulator) Report {
		p := NewPool(ss, 4, q)
		p.SetSpeedAt(0, 5e-3, 0.05)
		return Reissue{TimeoutFactor: 2}.Run(p, UniformTasks(60, 10))
	})
	// Work conservation: executed units = required units + wasted units
	// (to float rounding — partial progress is flushed at completion).
	if got, want := sumUnits(r), 600+r.WastedUnits; math.Abs(got-want) > 1e-6 {
		t.Fatalf("executed %v != required 600 + wasted %v", got, r.WastedUnits)
	}
}

func TestDetectAvoidMigratesFromStutterer(t *testing.T) {
	run := func(sched Scheduler) sim.Duration {
		return acrossShards(t, func(ss *sim.ShardedSimulator) Report {
			p := NewPool(ss, 4, q)
			p.Workers()[0].SetSpeed(0.1)
			return sched.Run(p, UniformTasks(60, 40))
		}).Makespan
	}
	static := run(StaticPartition{})
	da := run(DetectAvoid{})
	if da*2 > static {
		t.Fatalf("detect-avoid %v not clearly faster than static %v", da, static)
	}
}

func TestDetectAvoidNoFalseMigrationWhenHealthy(t *testing.T) {
	r := acrossShards(t, func(ss *sim.ShardedSimulator) Report {
		return DetectAvoid{}.Run(NewPool(ss, 4, q), UniformTasks(40, 5))
	})
	if got := sumUnits(r); got != 200 {
		t.Fatalf("units executed = %v, want 200", got)
	}
	// With all workers healthy the split stays exactly even.
	for i, u := range r.PerWorkerUnits {
		if u != 50 {
			t.Fatalf("healthy run migrated work: worker %d did %v of 200", i, u)
		}
	}
}

// TestStalledJobPanics: a policy with no replication cannot finish when a
// worker holding work stalls to speed zero forever — the engine must say
// so loudly rather than return a bogus report.
func TestStalledJobPanics(t *testing.T) {
	for _, k := range testShards {
		func() {
			p := NewPool(newSharded(k), 2, q)
			p.Workers()[0].SetSpeed(0)
			defer func() {
				if recover() == nil {
					t.Fatalf("%d shards: stalled static job did not panic", k)
				}
			}()
			StaticPartition{}.Run(p, UniformTasks(4, 5))
		}()
	}
}

// TestRunKeepsCallerBarrierHook: a job owns the coordinator's barrier
// hook while it runs, so starting one on a coordinator whose hook another
// component holds must fail loudly, before touching the pool, and leave
// that hook in place rather than silently cutting it off.
func TestRunKeepsCallerBarrierHook(t *testing.T) {
	ss := newSharded(2)
	p := NewPool(ss, 4, q)
	calls := 0
	ss.SetBarrier(func(sim.Time) { calls++ })
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("scheduler run over a live caller hook did not panic")
			}
			if msg, _ := r.(string); !strings.Contains(msg, "barrier hook is already installed") {
				t.Fatalf("panic %v does not name the hook conflict", r)
			}
		}()
		WorkQueue{}.Run(p, UniformTasks(8, 5))
	}()
	for _, w := range p.Workers() {
		if w.Busy() {
			t.Fatalf("worker %d was dispatched before the conflict was detected", w.ID())
		}
	}
	ss.Shard(0).At(1, func() {})
	ss.Run()
	if calls == 0 {
		t.Fatal("the caller's barrier hook was dropped")
	}
}

// TestSchedulersDeterministic: identical configurations produce bitwise
// identical reports, including under mid-run faults and speculation — at
// every shard count, where every scheduler's makespan, per-worker units,
// waste and duplicates must match the 1-shard run exactly.
func TestSchedulersDeterministic(t *testing.T) {
	run := func(sched Scheduler) func(*sim.ShardedSimulator) Report {
		return func(ss *sim.ShardedSimulator) Report {
			p := NewPool(ss, 4, q)
			p.SetSpeedAt(1, 7e-3, 0.05)
			return sched.Run(p, UniformTasks(48, 12))
		}
	}
	for _, sched := range Schedulers() {
		a := acrossShards(t, run(sched))
		b := acrossShards(t, run(sched))
		if a.Makespan != b.Makespan || a.WastedUnits != b.WastedUnits || a.Duplicates != b.Duplicates {
			t.Fatalf("%s not deterministic: %+v vs %+v", sched.Name(), a, b)
		}
		for i := range a.PerWorkerUnits {
			if a.PerWorkerUnits[i] != b.PerWorkerUnits[i] {
				t.Fatalf("%s per-worker units differ at %d: %v vs %v",
					sched.Name(), i, a.PerWorkerUnits[i], b.PerWorkerUnits[i])
			}
		}
	}
}

func TestSchedulersListOrdered(t *testing.T) {
	ss := Schedulers()
	if len(ss) != 6 {
		t.Fatalf("scheduler set = %d entries", len(ss))
	}
	if ss[0].Name() != "static-partition" || ss[len(ss)-1].Name() != "detect-avoid" {
		t.Fatalf("unexpected ordering: %s .. %s", ss[0].Name(), ss[len(ss)-1].Name())
	}
}

func TestSortReports(t *testing.T) {
	rs := []Report{
		{Scheduler: "b", Makespan: 2},
		{Scheduler: "a", Makespan: 1},
	}
	SortReports(rs)
	if rs[0].Scheduler != "a" {
		t.Fatalf("sorted = %v", rs)
	}
}
