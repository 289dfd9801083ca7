// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, a cancelable event queue, seeded random-number streams,
// and first-come-first-served queueing stations with time-varying service
// rates.
//
// All device-level experiments in this repository (disks, switches, RAID
// arrays) run on this kernel so that months of simulated operation complete
// in milliseconds and every run is reproducible from a seed.
//
// The kernel is built for the hot path: events live in a pooled arena, so a
// schedule/fire cycle performs no heap allocation in steady state and no
// interface boxing ever. The pending set has two parts, both holding arena
// indices. A hand-rolled 4-ary min-heap takes events at arbitrary times.
// In front of it sit exact-time runs: FIFOs of events that all fall due at
// one time, threaded through the arena. An event joins a run when a run
// for its exact time exists, or opens one when the previous schedule named
// the same time, so tie-heavy traffic (a fleet whose completions land on a
// shared grid) pays O(1) per event while random-time traffic never builds
// a run and goes to the heap as before. Order stays exact: within one
// time, sequence numbers only grow, so appending keeps a run in (at, seq)
// order, and the next event is the smaller by (at, seq) of the heap top
// and the head of the earliest run.
//
// Timer handles are values carrying a generation counter, which keeps them
// safe against arena slot reuse: a handle whose event has fired, been
// stopped, or whose slot now holds a newer event reports not-pending and
// refuses to stop the newcomer. Stopping a heap event removes it at once;
// stopping a run event is lazy — the slot goes dead in place (generation
// bumped, closure dropped) and is freed when the run's head reaches it, so
// a run's head is always live and a run with no live event is dropped.
package sim

import (
	"fmt"
	"math"
	"slices"
)

// Time is a point in virtual time, measured in seconds since the start of
// the simulation.
type Time = float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// event is a scheduled callback, stored in the simulator's arena. Events
// are ordered by time, with ties broken by insertion sequence so that
// execution order is deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// pos places the event: its heap position when >= 0, -1 when the slot
	// is free, and -(next+3) when it is linked into an exact-time run,
	// where next is the arena index of the following run event (-1 at the
	// tail). A run event whose fn is nil was stopped and awaits unlinking.
	pos int32
	// gen increments every time the arena slot is released, invalidating
	// any Timer handles that still point at the slot.
	gen uint32
}

// Timer is a value handle to a scheduled event that can be canceled before
// it fires. The zero Timer is valid and behaves as an already-expired
// timer. Handles stay safe after their event fires or is stopped, even if
// the underlying arena slot is reused for a later event.
type Timer struct {
	s   *Simulator
	idx int32
	gen uint32
}

// Stop cancels the timer, removes the event from the queue, and releases
// the captured closure immediately. It reports whether the event was still
// pending; it returns false if the event already fired or was already
// stopped.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	ev := &t.s.arena[t.idx]
	if ev.gen != t.gen || ev.pos == posFree {
		return false
	}
	if ev.pos >= 0 {
		t.s.removeAt(int(ev.pos))
		t.s.release(t.idx)
		return true
	}
	t.s.stopInRun(t.idx)
	return true
}

// Pending reports whether the timer's event has yet to fire.
func (t Timer) Pending() bool {
	if t.s == nil {
		return false
	}
	ev := &t.s.arena[t.idx]
	return ev.gen == t.gen && ev.pos != posFree
}

// heapArity is the branching factor of the event heap. A 4-ary heap halves
// the tree depth of a binary heap, trading slightly more comparisons per
// level for fewer cache-missing swaps — a win for the sift-down-dominated
// pop path.
const heapArity = 4

// posFree marks a free arena slot; see event.pos for the other encodings.
const posFree = -1

// runLink encodes "linked into a run, followed by next" as an event.pos.
func runLink(next int32) int32 { return -(next + 3) }

// runNext decodes the next arena index of a run event's pos, -1 at the tail.
func runNext(pos int32) int32 { return -pos - 3 }

// maxRuns caps the live runs. Opening or draining a run shifts the sorted
// runs slice, so a workload that tied pairs of events at many distinct
// times would otherwise pay O(runs) per event; past the cap, a new time
// goes to the heap, which orders any traffic in O(log n). The busiest
// quick experiment (E31) peaks at 59 live runs and the fleet at 2, so the
// cap only bounds the worst case.
const maxRuns = 256

// run is a FIFO of events that all fall due at exactly at, linked through
// event.pos from head to tail. head is always live; live counts the
// unstopped events, and dead ones stay linked until the head reaches them.
type run struct {
	at         Time
	head, tail int32
	live       int
}

// StationProbe observes station occupancy transitions: it is called after
// every change to a station's queue or in-service state (submit, completion,
// failure), with the virtual time of the transition. Probes are the
// profiling plane's sampling hook — they must not mutate the station or
// schedule events.
type StationProbe func(now Time, st *Station)

// Simulator owns the virtual clock and the pending-event queue.
// The zero value is not ready for use; call New.
type Simulator struct {
	now Time
	// arena holds every event slot ever allocated; free lists the slots
	// currently available for reuse; heap holds arena indices of the live
	// (scheduled, unstopped) events outside runs, ordered by (at, seq);
	// runs holds the exact-time runs sorted by time.
	arena []event
	free  []int32
	heap  []int32
	runs  []run
	// lastAt is the time the previous At named; a second At at the same
	// time opens a run.
	lastAt  Time
	seq     uint64
	stopped bool
	fired   uint64

	// stationProbe, when non-nil, is invoked on every station occupancy
	// transition in this simulation. Each transition costs one nil check
	// when no probe is installed.
	stationProbe StationProbe
}

// New returns a simulator with the clock at time zero.
func New() *Simulator {
	return &Simulator{lastAt: math.NaN()}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// SetStationProbe installs (or, with nil, removes) the probe called on
// every station occupancy transition. Exactly one probe can be active per
// simulator; the profiling plane installs one that samples queue depth and
// backlog into time series.
func (s *Simulator) SetStationProbe(p StationProbe) { s.stationProbe = p }

// EventsFired returns the number of events executed so far, a useful
// determinism check in tests.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// Pending returns the number of live events still queued. Stopped events
// never count, even while a run still links their slots.
func (s *Simulator) Pending() int {
	n := len(s.heap)
	for _, r := range s.runs {
		n += r.live
	}
	return n
}

// alloc takes a slot from the free list (or grows the arena) and
// initializes it for a new event.
func (s *Simulator) alloc(t Time, fn func()) int32 {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.arena = append(s.arena, event{})
		idx = int32(len(s.arena) - 1)
	}
	ev := &s.arena[idx]
	ev.at = t
	ev.seq = s.seq
	ev.fn = fn
	s.seq++
	return idx
}

// release returns a slot to the free list, dropping the closure so it can
// be collected immediately and bumping the generation so stale Timer
// handles go dead.
func (s *Simulator) release(idx int32) {
	ev := &s.arena[idx]
	ev.fn = nil
	ev.pos = posFree
	ev.gen++
	s.free = append(s.free, idx)
}

// less orders heap entries by (at, seq).
func (s *Simulator) less(a, b int32) bool {
	ea, eb := &s.arena[a], &s.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// siftUp restores heap order from position i toward the root.
func (s *Simulator) siftUp(i int) {
	idx := s.heap[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := s.heap[parent]
		if !s.less(idx, p) {
			break
		}
		s.heap[i] = p
		s.arena[p].pos = int32(i)
		i = parent
	}
	s.heap[i] = idx
	s.arena[idx].pos = int32(i)
}

// siftDown restores heap order from position i toward the leaves.
func (s *Simulator) siftDown(i int) {
	idx := s.heap[i]
	n := len(s.heap)
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(s.heap[c], s.heap[best]) {
				best = c
			}
		}
		b := s.heap[best]
		if !s.less(b, idx) {
			break
		}
		s.heap[i] = b
		s.arena[b].pos = int32(i)
		i = best
	}
	s.heap[i] = idx
	s.arena[idx].pos = int32(i)
}

// removeAt deletes the heap entry at position i, preserving heap order.
func (s *Simulator) removeAt(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	s.heap[i] = last
	s.arena[last].pos = int32(i)
	s.siftDown(i)
	s.siftUp(i)
}

// findRun returns the index of the run for exactly time t and true, or
// the index at which such a run would be inserted and false. The newest
// run is checked first: a firing usually schedules its successor there.
func (s *Simulator) findRun(t Time) (int, bool) {
	n := len(s.runs)
	if n == 0 || t > s.runs[n-1].at {
		return n, false
	}
	if t == s.runs[n-1].at {
		return n - 1, true
	}
	lo, hi := 0, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.runs[mid].at < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, s.runs[lo].at == t
}

// stopInRun cancels the live run event idx lazily: the slot goes dead in
// place and is freed once it reaches its run's head.
func (s *Simulator) stopInRun(idx int32) {
	ev := &s.arena[idx]
	ev.gen++
	ev.fn = nil
	i, _ := s.findRun(ev.at)
	r := &s.runs[i]
	r.live--
	if r.head == idx {
		s.trimRun(i)
	}
}

// trimRun frees the dead events at run i's head, dropping the run when
// none is left, so that no run is ever headed by a stopped event.
func (s *Simulator) trimRun(i int) {
	r := &s.runs[i]
	idx := r.head
	for idx >= 0 && s.arena[idx].fn == nil {
		next := runNext(s.arena[idx].pos)
		s.release(idx)
		idx = next
	}
	if idx < 0 {
		s.runs = slices.Delete(s.runs, i, i+1)
		return
	}
	r.head = idx
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// or with a nil fn panics: either always indicates a logic error in the
// caller, and silently clamping or deferring the failure to the firing
// would hide it.
func (s *Simulator) At(t Time, fn func()) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: schedule at non-finite time %v", t))
	}
	if fn == nil {
		panic(fmt.Sprintf("sim: schedule of a nil callback at %v", t))
	}
	idx := s.alloc(t, fn)
	ev := &s.arena[idx]
	if i, ok := s.findRun(t); ok {
		r := &s.runs[i]
		s.arena[r.tail].pos = runLink(idx)
		r.tail = idx
		r.live++
		ev.pos = runLink(-1)
	} else if t == s.lastAt && len(s.runs) < maxRuns {
		s.runs = slices.Insert(s.runs, i, run{at: t, head: idx, tail: idx, live: 1})
		ev.pos = runLink(-1)
	} else {
		i := len(s.heap)
		s.heap = append(s.heap, idx)
		ev.pos = int32(i)
		s.siftUp(i)
	}
	s.lastAt = t
	return Timer{s: s, idx: idx, gen: ev.gen}
}

// After schedules fn to run d seconds from now. A non-positive d runs the
// event at the current time, after events already queued for this instant.
func (s *Simulator) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Stop halts the run loop after the currently executing event returns.
// Pending events remain queued.
func (s *Simulator) Stop() { s.stopped = true }

// step pops and executes the next event: the smaller by (at, seq) of the
// heap top and the earliest run's head. It reports false when the queue is
// empty. Stopped events never reach here: Timer.Stop removes heap events
// eagerly and a run is never headed by a stopped one.
func (s *Simulator) step() bool {
	var idx int32
	switch {
	case len(s.runs) > 0 && (len(s.heap) == 0 || s.less(s.runs[0].head, s.heap[0])):
		r := &s.runs[0]
		idx = r.head
		r.head = runNext(s.arena[idx].pos)
		r.live--
		s.trimRun(0)
	case len(s.heap) > 0:
		idx = s.heap[0]
		s.removeAt(0)
	default:
		return false
	}
	ev := &s.arena[idx]
	s.now = ev.at
	fn := ev.fn
	s.release(idx)
	s.fired++
	fn()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.step() {
	}
}

// nextAt returns the time of the earliest queued event, or +Inf when the
// queue is empty. The sharded coordinator polls it to pick each safe
// window's base time.
func (s *Simulator) nextAt() Time {
	t := math.Inf(1)
	if len(s.heap) > 0 {
		t = s.arena[s.heap[0]].at
	}
	if len(s.runs) > 0 && s.runs[0].at < t {
		t = s.runs[0].at
	}
	return t
}

// runWindow executes every queued event with time strictly before h and
// not after limit, leaving the clock at the last executed event. It is the
// per-shard body of the sharded coordinator's safe window: events at or
// beyond the horizon h belong to a later window, because another shard may
// still deliver events ahead of them.
func (s *Simulator) runWindow(h, limit Time) {
	for at := s.nextAt(); at < h && at <= limit; at = s.nextAt() {
		s.step()
	}
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t. Events scheduled after t remain queued.
func (s *Simulator) RunUntil(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, s.now))
	}
	s.stopped = false
	for !s.stopped && s.nextAt() <= t && s.step() {
	}
	if !s.stopped && s.now < t {
		s.now = t
	}
}
