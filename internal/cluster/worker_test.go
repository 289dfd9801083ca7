package cluster

import (
	"math"
	"reflect"
	"testing"

	"failstutter/internal/sim"
)

// q is the test work-unit quantum: 50 virtual microseconds per unit. It is
// also the lookahead L of every test coordinator, as in the experiments.
const q = sim.Duration(50e-6)

// L is the test coordinator's lookahead: a barrier dispatch lands at the
// window horizon, at most L after the completion that caused it.
const L = q

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// testShards are the shard counts the barrier-engine suites run at: the
// 1-shard degenerate case and two partitions that split the workers.
var testShards = []int{1, 2, 3}

// newSharded builds a test coordinator with lookahead L.
func newSharded(shards int) *sim.ShardedSimulator { return sim.NewSharded(shards, L) }

// acrossShards runs the scenario on a fresh coordinator at every test
// shard count and fails unless all of them yield the identical result,
// which it returns.
func acrossShards[R any](t *testing.T, run func(ss *sim.ShardedSimulator) R) R {
	t.Helper()
	var want R
	for i, k := range testShards {
		got := run(newSharded(k))
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: %+v\nwant %+v as at %d shard", k, got, want, testShards[0])
		}
	}
	return want
}

// TestPoolSpreadsAcrossShards keeps the shard-invariance suites honest:
// at 2 and 3 shards the 4-worker test pool really is split.
func TestPoolSpreadsAcrossShards(t *testing.T) {
	for _, k := range testShards[1:] {
		homes := map[int]bool{}
		for _, w := range NewPool(newSharded(k), 4, q).Workers() {
			homes[w.shard] = true
		}
		if len(homes) < 2 {
			t.Fatalf("%d shards: all 4 workers on one shard", k)
		}
	}
}

func TestWorkerExecutesUnits(t *testing.T) {
	ss := newSharded(1)
	p := NewPool(ss, 1, q)
	w := p.Workers()[0]
	w.exec(100)
	ss.Run()
	if w.UnitsDone() != 100 {
		t.Fatalf("UnitsDone = %v", w.UnitsDone())
	}
	if w.TasksDone() != 1 {
		t.Fatalf("TasksDone = %d", w.TasksDone())
	}
	// 100 units at 50 virtual microseconds each: exactly 5ms of virtual
	// time, not "at least" — no sleep overshoot exists here.
	if !near(ss.Now(), 100*q) {
		t.Fatalf("100 units took %v virtual seconds, want %v", ss.Now(), 100*q)
	}
}

func TestWorkerSpeedScales(t *testing.T) {
	run := func(speed float64) sim.Duration {
		ss := newSharded(1)
		p := NewPool(ss, 1, q)
		p.Workers()[0].SetSpeed(speed)
		p.Workers()[0].exec(50)
		ss.Run()
		return ss.Now()
	}
	slow := run(0.25)
	fast := run(2)
	// Exact ratio 8: 50q/0.25 vs 50q/2.
	if !near(slow, 8*fast) {
		t.Fatalf("slow %v vs fast %v: want an exact 8x ratio", slow, fast)
	}
}

func TestWorkerStallAndResume(t *testing.T) {
	ss := newSharded(1)
	p := NewPool(ss, 1, q)
	w := p.Workers()[0]
	w.SetSpeed(0)
	w.exec(10)
	p.SetSpeedAt(0, 1, 1)
	ss.Run()
	if w.UnitsDone() != 10 {
		t.Fatalf("UnitsDone = %v after resume", w.UnitsDone())
	}
	// Stalled for exactly 1 virtual second, then 10 units at full speed.
	if !near(ss.Now(), 1+10*q) {
		t.Fatalf("stall+resume finished at %v, want %v", ss.Now(), 1+10*q)
	}
}

func TestWorkerPartialProgressVisible(t *testing.T) {
	ss := newSharded(1)
	p := NewPool(ss, 1, q)
	w := p.Workers()[0]
	w.exec(100)
	ss.RunUntil(25 * q)
	if !near(w.UnitsDone(), 25) {
		t.Fatalf("UnitsDone mid-execution = %v, want 25", w.UnitsDone())
	}
	if !w.Busy() {
		t.Fatal("worker not busy mid-execution")
	}
}

func TestWorkerInvalidSpeedPanics(t *testing.T) {
	w := NewPool(newSharded(1), 1, q).Workers()[0]
	defer func() {
		if recover() == nil {
			t.Fatal("negative speed did not panic")
		}
	}()
	w.SetSpeed(-1)
}

func TestWorkerDispatchWhileBusyPanics(t *testing.T) {
	w := NewPool(newSharded(1), 1, q).Workers()[0]
	w.exec(10)
	defer func() {
		if recover() == nil {
			t.Fatal("double dispatch did not panic")
		}
	}()
	w.exec(10)
}

func TestPoolHogRestores(t *testing.T) {
	ss := newSharded(1)
	p := NewPool(ss, 2, q)
	p.Hog(1, 0.1, 5e-3)
	if sp := p.Workers()[1].Speed(); sp != 0.1 {
		t.Fatalf("hogged speed = %v", sp)
	}
	ss.Run() // fires the restore event
	if sp := p.Workers()[1].Speed(); sp != 1 {
		t.Fatalf("speed after hog = %v", sp)
	}
	if !near(ss.Now(), 5e-3) {
		t.Fatalf("hog restored at %v, want 5ms", ss.Now())
	}
}

func TestPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty pool did not panic")
		}
	}()
	NewPool(newSharded(1), 0, q)
}

// TestWorkerStepZeroAlloc pins the steady-state worker step path —
// exec -> station completion -> finish hook — at zero allocations,
// matching the Station pipeline discipline.
func TestWorkerStepZeroAlloc(t *testing.T) {
	ss := newSharded(1)
	p := NewPool(ss, 1, q)
	w := p.Workers()[0]
	step := func() {
		w.exec(1)
		ss.Run()
	}
	step() // warm the simulator arena and heap
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("worker step path allocates %v per execution, want 0", n)
	}
}

func BenchmarkWorkerStep(b *testing.B) {
	ss := newSharded(1)
	p := NewPool(ss, 1, q)
	w := p.Workers()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.exec(1)
		ss.Run()
	}
}

// BenchmarkClusterScale shows the design goal the goroutine runtime could
// not meet: thousands of workers on one OS thread, one event per task.
func BenchmarkClusterScale(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPool(newSharded(1), 2000, q)
		WorkQueue{}.Run(p, UniformTasks(10000, 5))
	}
}
