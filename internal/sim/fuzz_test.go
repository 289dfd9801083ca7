package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// kernelMaxOps bounds the top-level operations of a FuzzKernel program
// and kernelMaxTimers the events one shard may schedule, children
// included: enough for long chains of ties, small enough that the
// naive reference keeps one execution fast.
const (
	kernelMaxOps    = 256
	kernelMaxTimers = 2048
)

// kernelProgram reads a FuzzKernel program's bytes; an exhausted program
// reads as zeros.
type kernelProgram struct{ b []byte }

func (r *kernelProgram) more() bool { return len(r.b) > 0 }

func (r *kernelProgram) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// childDelays is the grid a fired event schedules its children on: ties
// at the firing time, the fleet's 0.5 and 2.0 s steps, and an off-grid
// offset.
var childDelays = [4]Duration{0, 0.5, 2.0, 0.37}

// kspec is what an event does when it fires: schedule one child per
// delay (child i inherits delays[i+1:], so a tree stays small), then stop
// the timer with index stop in its shard's list when stop >= 0.
type kspec struct {
	delays []Duration
	stop   int
}

// spec decodes an event's behaviour from two program bytes: cs's low two
// bits give the child count and each following pair of bits a delay; st
// names a timer to stop (0 = none).
func (r *kernelProgram) spec() kspec {
	cs, st := r.next(), r.next()
	sp := kspec{stop: int(st) - 1}
	for i := 0; i < int(cs&3); i++ {
		sp.delays = append(sp.delays, childDelays[cs>>(2+2*i)&3])
	}
	return sp
}

// kernel is the surface FuzzKernel drives, implemented by a Simulator, a
// ShardedSimulator and the naive reference. Timers are kept per shard, in
// creation order, and named by their index there.
type kernel interface {
	now(shard int) Time
	at(shard int, t Time, fn func())
	after(shard int, d Duration, fn func())
	stop(shard, i int) bool
	timerPending(shard, i int) bool
	timers(shard int) int
	shardPending(shard int) int
	pending() int
	runUntil(t Time)
	run()
}

// kernelRun executes one program on one kernel and records, per shard,
// every firing (id, clock, the shard's pending count, and the results of
// the event's own stop) and, for the top level, every Stop, Timer.Pending,
// Pending and RunUntil result. A shard's log is written only by its own
// events, so sharded windows record without locks.
type kernelRun struct {
	k    kernel
	logs [][]string
	top  []string
}

func (h *kernelRun) schedule(shard int, t Time, sp kspec, after bool) {
	id := h.k.timers(shard)
	fn := func() { h.fire(shard, id, sp) }
	if after {
		h.k.after(shard, t, fn)
	} else {
		h.k.at(shard, t, fn)
	}
}

func (h *kernelRun) fire(shard, id int, sp kspec) {
	now := h.k.now(shard)
	h.logs[shard] = append(h.logs[shard], fmt.Sprintf("fire %d at %v pending %d", id, now, h.k.shardPending(shard)))
	for i, d := range sp.delays {
		if h.k.timers(shard) >= kernelMaxTimers {
			break
		}
		child := kspec{delays: sp.delays[i+1:], stop: -1}
		if sp.stop >= 0 {
			child.stop = sp.stop + i + 1
		}
		h.schedule(shard, now+d, child, false)
	}
	if n := h.k.timers(shard); sp.stop >= 0 && n > 0 {
		j := sp.stop % n
		h.logs[shard] = append(h.logs[shard], fmt.Sprintf("  stop %d: %v", j, h.k.stop(shard, j)))
	}
}

// exec decodes and runs the program on k shards, then drains the kernel.
func (h *kernelRun) exec(prog []byte, shards int) {
	r := &kernelProgram{b: prog}
	h.logs = make([][]string, shards)
	scheduled := 0
	// target spreads top-level events over the shards in program order.
	target := func() int {
		scheduled++
		return (scheduled - 1) % shards
	}
	for op := 0; op < kernelMaxOps && r.more(); op++ {
		now := h.k.now(0)
		half := math.Ceil(now*2) / 2 // the next 0.5 s grid point
		two := math.Ceil(now/2) * 2  // the next 2.0 s grid point
		switch r.next() % 8 {
		case 0:
			t := half + 0.5*float64(r.next()%8)
			h.schedule(target(), t, r.spec(), false)
		case 1:
			t := two + 2*float64(r.next()%4)
			h.schedule(target(), t, r.spec(), false)
		case 2:
			t := now + float64(int(r.next())|int(r.next())<<8)/997
			h.schedule(target(), t, r.spec(), false)
		case 3: // a burst: up to 64 events at one grid time
			n, a := 1+int(r.next()%64), r.next()
			t := half + 0.5*float64(a%8)
			sp := r.spec()
			for i := 0; i < n; i++ {
				h.schedule(target(), t, sp, false)
			}
		case 4:
			a := r.next()
			d := [5]Duration{0, 0.5, 2.0, -1, float64(a) / 16}[a%5]
			h.schedule(target(), d, r.spec(), true)
		case 5:
			shard, i := int(r.next())%shards, int(r.next())
			if n := h.k.timers(shard); n > 0 {
				h.top = append(h.top, fmt.Sprintf("stop %d/%d: %v", shard, i%n, h.k.stop(shard, i%n)))
			}
		case 6:
			shard, i := int(r.next())%shards, int(r.next())
			if n := h.k.timers(shard); n > 0 {
				h.top = append(h.top, fmt.Sprintf("pending %d/%d: %v", shard, i%n, h.k.timerPending(shard, i%n)))
			}
			h.top = append(h.top, fmt.Sprintf("Pending: %d", h.k.pending()))
		case 7:
			a := r.next()
			t := now + [7]Duration{0, 0.25, 0.5, 1, 2, 3.7, float64(a) / 8}[a%7]
			h.k.runUntil(t)
			h.top = append(h.top, fmt.Sprintf("RunUntil %v: now %v, Pending %d", t, h.k.now(0), h.k.pending()))
		}
	}
	h.k.run()
	h.top = append(h.top, fmt.Sprintf("drained: Pending %d", h.k.pending()))
}

// FuzzKernel decodes its input as a program of At, After, Timer.Stop,
// Timer.Pending, Pending and RunUntil steps — times on the fleet's 0.5
// and 2.0 s grids, so ties are the norm, or raw — whose fired events may
// schedule children and stop timers. It runs the program on a Simulator
// and on a ShardedSimulator at 1, 2 and 3 shards, each against the naive
// reference at the same shard count, and requires every firing (order,
// clock, pending count) and every Stop, Timer.Pending, Pending and
// RunUntil result to match. The seed corpus under
// testdata/fuzz/FuzzKernel replays on every go test run.
func FuzzKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		check := func(name string, shards int, k kernel) {
			got := &kernelRun{k: k}
			got.exec(prog, shards)
			want := &kernelRun{k: newRefKernel(shards)}
			want.exec(prog, shards)
			for s := 0; s < shards; s++ {
				sameLog(t, fmt.Sprintf("%s shard %d", name, s), got.logs[s], want.logs[s])
			}
			sameLog(t, name+" top level", got.top, want.top)
		}
		check("Simulator", 1, &serialKernel{s: New()})
		for _, shards := range []int{1, 2, 3} {
			check(fmt.Sprintf("ShardedSimulator(%d)", shards), shards, newShardedKernel(shards))
		}
	})
}

func sameLog(t *testing.T, name string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s: entry %d is %q, the reference has %q", name, i, g, w)
		}
	}
}

// serialKernel adapts a Simulator: one shard.
type serialKernel struct {
	s  *Simulator
	tm []Timer
}

func (k *serialKernel) now(int) Time                       { return k.s.Now() }
func (k *serialKernel) at(_ int, t Time, fn func())        { k.tm = append(k.tm, k.s.At(t, fn)) }
func (k *serialKernel) after(_ int, d Duration, fn func()) { k.tm = append(k.tm, k.s.After(d, fn)) }
func (k *serialKernel) stop(_, i int) bool                 { return k.tm[i].Stop() }
func (k *serialKernel) timerPending(_, i int) bool         { return k.tm[i].Pending() }
func (k *serialKernel) timers(int) int                     { return len(k.tm) }
func (k *serialKernel) shardPending(int) int               { return k.s.Pending() }
func (k *serialKernel) pending() int                       { return k.s.Pending() }
func (k *serialKernel) runUntil(t Time)                    { k.s.RunUntil(t) }
func (k *serialKernel) run()                               { k.s.Run() }

// shardedKernel adapts a ShardedSimulator; each shard keeps its own timer
// list, touched only by its own events or at top level.
type shardedKernel struct {
	ss *ShardedSimulator
	tm [][]Timer
}

func newShardedKernel(shards int) *shardedKernel {
	return &shardedKernel{ss: NewSharded(shards, 1), tm: make([][]Timer, shards)}
}

func (k *shardedKernel) now(shard int) Time { return k.ss.Shard(shard).Now() }
func (k *shardedKernel) at(shard int, t Time, fn func()) {
	k.tm[shard] = append(k.tm[shard], k.ss.Shard(shard).At(t, fn))
}
func (k *shardedKernel) after(shard int, d Duration, fn func()) {
	k.tm[shard] = append(k.tm[shard], k.ss.Shard(shard).After(d, fn))
}
func (k *shardedKernel) stop(shard, i int) bool         { return k.tm[shard][i].Stop() }
func (k *shardedKernel) timerPending(shard, i int) bool { return k.tm[shard][i].Pending() }
func (k *shardedKernel) timers(shard int) int           { return len(k.tm[shard]) }
func (k *shardedKernel) shardPending(shard int) int     { return k.ss.Shard(shard).Pending() }
func (k *shardedKernel) pending() int                   { return k.ss.Pending() }
func (k *shardedKernel) runUntil(t Time)                { k.ss.RunUntil(t) }
func (k *shardedKernel) run()                           { k.ss.Run() }

// refEvent is one event of the naive reference kernel.
type refEvent struct {
	at            Time
	seq           uint64
	shard         int
	fn            func()
	fired, halted bool
}

// refKernel is the naive reference: one global clock and one slice of
// pending events kept sorted by (at, seq), searched and shifted linearly.
type refKernel struct {
	clock Time
	seq   uint64
	queue []*refEvent
	tm    [][]*refEvent
}

func newRefKernel(shards int) *refKernel { return &refKernel{tm: make([][]*refEvent, shards)} }

func (k *refKernel) now(int) Time { return k.clock }

func (k *refKernel) at(shard int, t Time, fn func()) {
	ev := &refEvent{at: t, seq: k.seq, shard: shard, fn: fn}
	k.seq++
	i := 0
	for i < len(k.queue) && (k.queue[i].at < t || k.queue[i].at == t && k.queue[i].seq < ev.seq) {
		i++
	}
	k.queue = slices.Insert(k.queue, i, ev)
	k.tm[shard] = append(k.tm[shard], ev)
}

func (k *refKernel) after(shard int, d Duration, fn func()) { k.at(shard, k.clock+max(d, 0), fn) }

func (k *refKernel) stop(shard, i int) bool {
	ev := k.tm[shard][i]
	if ev.fired || ev.halted {
		return false
	}
	ev.halted = true
	k.queue = slices.DeleteFunc(k.queue, func(e *refEvent) bool { return e == ev })
	return true
}

func (k *refKernel) timerPending(shard, i int) bool {
	ev := k.tm[shard][i]
	return !ev.fired && !ev.halted
}

func (k *refKernel) timers(shard int) int { return len(k.tm[shard]) }

func (k *refKernel) shardPending(shard int) int {
	n := 0
	for _, ev := range k.queue {
		if ev.shard == shard {
			n++
		}
	}
	return n
}

func (k *refKernel) pending() int { return len(k.queue) }

func (k *refKernel) runUntil(t Time) {
	for len(k.queue) > 0 && k.queue[0].at <= t {
		ev := k.queue[0]
		k.queue = k.queue[1:]
		k.clock = ev.at
		ev.fired = true
		ev.fn()
	}
	k.clock = max(k.clock, t)
}

func (k *refKernel) run() {
	for n := len(k.queue); n > 0; n = len(k.queue) {
		k.runUntil(k.queue[n-1].at)
	}
}
