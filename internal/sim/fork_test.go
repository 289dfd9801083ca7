package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// runTinyWindows drives four components pinned round-robin to shards
// through 200 ticks each, one tick per virtual second at staggered
// offsets, every tick also sending a message to the next component. With
// a 0.5 s lookahead every window holds one or two events per shard: the
// small-window regime of the switch and cluster planes. It returns each
// component's log of tick and arrival times and the barrier profile.
func runTinyWindows(shards int) ([][]Time, BarrierStats) {
	const comps, ticks = 4, 200
	ss := NewSharded(shards, 0.5)
	prof := ss.Profile()
	logs := make([][]Time, comps)
	for c := 0; c < comps; c++ {
		c := c
		home := ss.Shard(c % shards)
		var tick func()
		n := 0
		tick = func() {
			now := home.Now()
			logs[c] = append(logs[c], now)
			dst := (c + 1) % comps
			ss.Send(c%shards, dst%shards, now+0.75, fmt.Sprintf("comp%d", c), func() {
				logs[dst] = append(logs[dst], -ss.Shard(dst%shards).Now())
			})
			if n++; n < ticks {
				home.After(1, tick)
			}
		}
		home.At(0.1*float64(c), tick)
	}
	ss.Run()
	return logs, *prof
}

// TestForkedWindowsCounter pins both regimes of the fork rule, each
// against the 1-shard run: tiny multi-shard windows run inline (every one
// forks only in race builds, whose threshold is 1), and the 100k-event
// stress workload's large windows fork.
func TestForkedWindowsCounter(t *testing.T) {
	baseLogs, baseProf := runTinyWindows(1)
	logs, prof := runTinyWindows(2)
	for c := range baseLogs {
		if fmt.Sprint(logs[c]) != fmt.Sprint(baseLogs[c]) {
			t.Fatalf("tiny windows: component %d log differs at 2 shards:\n%v\nvs 1 shard:\n%v", c, logs[c], baseLogs[c])
		}
	}
	multi := prof.Windows - prof.SoloWindows
	if multi == 0 {
		t.Fatal("tiny windows: no window had two or more active shards; the workload no longer exercises the fork rule")
	}
	wantForked := uint64(0)
	if forkMinEvents == 1 {
		wantForked = multi
	}
	if prof.ForkedWindows != wantForked {
		t.Fatalf("tiny windows: %d of %d multi-shard windows forked, want %d (forkMinEvents %d)",
			prof.ForkedWindows, multi, wantForked, forkMinEvents)
	}
	if baseProf.ForkedWindows != 0 || prof.Windows != baseProf.Windows || prof.Fired != baseProf.Fired {
		t.Fatalf("tiny windows: 1 shard ran %d windows, %d events, %d forked; 2 shards ran %d windows, %d events",
			baseProf.Windows, baseProf.Fired, baseProf.ForkedWindows, prof.Windows, prof.Fired)
	}

	base, _ := runShardStress(t, 1)
	res, _ := runShardStress(t, 4)
	if res.prof.ForkedWindows == 0 {
		t.Fatalf("stress: none of %d windows forked at 4 shards", res.prof.Windows)
	}
	if res.fired != base.fired || fmt.Sprint(res.observed) != fmt.Sprint(base.observed) {
		t.Fatal("stress: the forked run's firing sequences differ from the 1-shard run")
	}
}

// explodeInWindow is the panicking event body; the recovered stack must
// name it.
func explodeInWindow() { panic("boom in window") }

// loadWindow schedules n events on each shard inside [0, 1), the event at
// index bad on shard badShard panicking.
func loadWindow(ss *ShardedSimulator, n, badShard, bad int) {
	for sh := 0; sh < ss.Shards(); sh++ {
		for i := 0; i < n; i++ {
			fn := func() {}
			if sh == badShard && i == bad {
				fn = explodeInWindow
			}
			ss.Shard(sh).At(0.01*float64(i), fn)
		}
	}
}

// recoverWorkerPanic runs fn and returns the *WorkerPanic it raises.
func recoverWorkerPanic(t *testing.T, fn func()) (wp *WorkerPanic) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic reached the coordinator")
		}
		var ok bool
		if wp, ok = r.(*WorkerPanic); !ok {
			t.Fatalf("panic value %T (%v), want *WorkerPanic", r, r)
		}
	}()
	fn()
	return nil
}

// TestShardPanicReraisedOnCoordinator: a panic inside a shard's window —
// on a forked goroutine or inline — reaches the caller of Run as a
// *WorkerPanic naming the shard, the window and the original stack,
// instead of killing the process from an anonymous goroutine.
func TestShardPanicReraisedOnCoordinator(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events int
		forked bool
	}{
		{"forked", 2 * forkMinEvents, true},
		{"inline", 1, forkMinEvents == 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ss := NewSharded(3, 1)
			loadWindow(ss, tc.events, 1, tc.events-1)
			wp := recoverWorkerPanic(t, ss.Run)
			if wp.Worker != "shard 1" || wp.T != 0 || wp.H != 1 || wp.Value != "boom in window" {
				t.Fatalf("got worker %q window [%v, %v) value %v; want shard 1, [0, 1), boom in window",
					wp.Worker, wp.T, wp.H, wp.Value)
			}
			stack := string(wp.Stack)
			if !strings.Contains(stack, "explodeInWindow") {
				t.Fatalf("stack does not reach the panicking event:\n%s", stack)
			}
			// Shard 1 is the second eligible shard, so a forked window runs
			// it on a goroutine forkJoin started; an inline one runs under
			// RunUntil.
			if onGoroutine := strings.Contains(stack, "created by failstutter/internal/sim.forkJoin"); onGoroutine != tc.forked {
				t.Fatalf("ran on a forked goroutine: %v, want %v:\n%s", onGoroutine, tc.forked, stack)
			}
			msg := wp.Error()
			for _, want := range []string{"shard 1", "window [0, 1)", "boom in window", "explodeInWindow"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("message lacks %q:\n%s", want, msg)
				}
			}
		})
	}
}

// TestWorkerPoolPanicReraised: a panic on a forked pool worker or on the
// inline worker 0 is re-raised by Do after every worker finished, naming
// the worker — the lowest one when several panicked; the pool stays
// usable.
func TestWorkerPoolPanicReraised(t *testing.T) {
	p := NewWorkerPool(3)
	defer p.Close()
	for _, bad := range [][]int{{2}, {0}, {1, 2}, {0, 1, 2}} {
		ran := make([]bool, 3)
		wp := recoverWorkerPanic(t, func() {
			p.Do(func(w int) {
				ran[w] = true
				if slices.Contains(bad, w) {
					panic(errors.New("sweep broke"))
				}
			})
		})
		if want := fmt.Sprintf("barrier pool worker %d", bad[0]); wp.Worker != want {
			t.Fatalf("worker %q, want %q", wp.Worker, want)
		}
		if !math.IsNaN(wp.T) || !math.IsNaN(wp.H) {
			t.Fatalf("a pool outside any barrier reported window [%v, %v)", wp.T, wp.H)
		}
		if !strings.Contains(wp.Error(), "sweep broke") || strings.Contains(wp.Error(), "window") {
			t.Fatalf("message %q", wp.Error())
		}
		if !ran[0] || !ran[1] || !ran[2] {
			t.Fatalf("Do returned before every worker ran: %v", ran)
		}
	}
	count := 0
	p.Do(func(w int) {
		if w == 0 {
			count++
		}
	})
	if count != 1 {
		t.Fatal("pool unusable after a recovered panic")
	}
}

// TestBarrierPoolPanicNamesWindow: a pool worker panicking inside a
// kernel's barrier hook reports the window whose barrier was running.
func TestBarrierPoolPanicNamesWindow(t *testing.T) {
	ss := NewSharded(2, 1)
	ss.SetBarrierParallelism(2)
	pool := ss.BarrierPool()
	defer pool.Close()
	ss.SetBarrier(func(h Time) {
		if h > 2 {
			pool.Do(func(w int) {
				if w == 1 {
					panic("sweep broke")
				}
			})
		}
	})
	ss.Shard(0).At(0.5, func() {})
	ss.Shard(1).At(3.5, func() {})
	wp := recoverWorkerPanic(t, ss.Run)
	if wp.Worker != "barrier pool worker 1" || wp.T != 3.5 || wp.H != 4.5 {
		t.Fatalf("got %q in window [%v, %v), want barrier pool worker 1 in [3.5, 4.5)", wp.Worker, wp.T, wp.H)
	}
	if !strings.Contains(wp.Error(), "window [3.5, 4.5)") {
		t.Fatalf("message %q does not name the window", wp.Error())
	}
}
