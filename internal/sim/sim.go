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
// interface boxing ever. The pending set is one hand-rolled 4-ary min-heap
// of arena indices, and each heap entry heads a FIFO chain of events due
// at the same time, linked through the arena. An event scheduled at the
// same time as the previous one, while that one is still pending, joins
// its chain in O(1), so tie-heavy traffic (a fleet whose completions land
// on a shared grid) skips the heap; any other event is pushed onto the
// heap. Order stays exact (time, sequence): a chain only grows at its
// tail, with the newest sequence number.
//
// Timer handles are values naming the simulator, the arena slot and the
// event's sequence number, which keeps them safe against slot reuse: a
// handle whose event has fired, been stopped, or whose slot now holds a
// newer event reports not-pending and refuses to stop the newcomer.
// Stopping a chain head promotes its first live successor into its heap
// slot at once; stopping a chained event drops its closure in place, and
// its slot is freed when its chain's head reaches it.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in seconds since the start of
// the simulation.
type Time = float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// event is a scheduled callback, stored in the simulator's arena. Events
// are ordered by time, with ties broken by insertion sequence so that
// execution order is deterministic. fn is nil once the event has fired or
// been stopped.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// pos is the event's heap position while it heads a chain, and -1
	// while it waits behind a chain head.
	pos int32
	// next is the arena index of the following event in the chain, -1 at
	// the tail.
	next int32
}

// Timer is a value handle to a scheduled event that can be canceled before
// it fires. The zero Timer is valid and behaves as an already-expired
// timer. Handles stay safe after their event fires or is stopped, even if
// the underlying arena slot is reused for a later event: a handle is live
// while its slot still holds its sequence number and a callback.
type Timer struct {
	s   *Simulator
	idx int32
	seq uint64
}

// Stop cancels the timer, removes the event from the queue, and releases
// the captured closure immediately. It reports whether the event was still
// pending; it returns false if the event already fired or was already
// stopped.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	s := t.s
	s.pending--
	ev := &s.arena[t.idx]
	if ev.pos < 0 {
		// Chained behind a live head: the slot is freed when the chain
		// reaches it.
		ev.fn = nil
		return true
	}
	s.popHead(int(ev.pos))
	s.release(t.idx)
	return true
}

// Pending reports whether the timer's event has yet to fire.
func (t Timer) Pending() bool {
	if t.s == nil {
		return false
	}
	ev := &t.s.arena[t.idx]
	return ev.seq == t.seq && ev.fn != nil
}

// heapArity is the branching factor of the event heap. A 4-ary heap halves
// the tree depth of a binary heap, trading slightly more comparisons per
// level for fewer cache-missing swaps — a win for the sift-down-dominated
// pop path.
const heapArity = 4

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
	// currently available for reuse; heap holds the arena indices of the
	// chain heads, ordered by (at, seq); last is the arena index of the
	// most recently scheduled event (none while seq is 0), the only one a
	// new event can chain behind.
	arena   []event
	free    []int32
	heap    []int32
	last    int32
	seq     uint64
	pending int
	stopped bool
	fired   uint64

	// stationProbe, when non-nil, is invoked on every station occupancy
	// transition in this simulation. Each transition costs one nil check
	// when no probe is installed.
	stationProbe StationProbe
}

// New returns a simulator with the clock at time zero.
func New() *Simulator {
	return &Simulator{}
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
// never count, even while a chain still links their slots.
func (s *Simulator) Pending() int { return s.pending }

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
	s.arena[idx] = event{at: t, seq: s.seq, fn: fn, pos: -1, next: -1}
	s.seq++
	return idx
}

// release returns a slot to the free list, dropping the closure so it can
// be collected immediately and so Timer handles to the slot go dead.
func (s *Simulator) release(idx int32) {
	s.arena[idx].fn = nil
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

// popHead takes the chain head at heap position i off the heap: its first
// live successor moves into its heap slot, and the stopped successors
// before it are freed; with none left, the slot is removed. The caller
// releases the head itself. The successor needs no sift: a chain's events
// were scheduled back to back, so the chains due at one time own disjoint
// ranges of sequence numbers, and every other heap entry orders against
// the successor exactly as it did against the head.
func (s *Simulator) popHead(i int) {
	next := s.arena[s.heap[i]].next
	for next >= 0 && s.arena[next].fn == nil {
		stopped := next
		next = s.arena[next].next
		s.release(stopped)
	}
	if next < 0 {
		s.removeAt(i)
		return
	}
	s.heap[i] = next
	s.arena[next].pos = int32(i)
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
	// The previous event is its chain's tail. It is checked before alloc,
	// which may hand its slot out again once it has fired or been stopped.
	chain := s.seq > 0 && s.arena[s.last].fn != nil && s.arena[s.last].at == t
	idx := s.alloc(t, fn)
	if chain {
		s.arena[s.last].next = idx
	} else {
		i := len(s.heap)
		s.heap = append(s.heap, idx)
		s.siftUp(i)
	}
	s.last = idx
	s.pending++
	return Timer{s: s, idx: idx, seq: s.arena[idx].seq}
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

// step pops and executes the next event, the head of the heap's top
// chain. It reports false when the queue is empty. Stopped events never
// reach here: a chain head is always live.
func (s *Simulator) step() bool {
	if len(s.heap) == 0 {
		return false
	}
	idx := s.heap[0]
	s.popHead(0)
	ev := &s.arena[idx]
	s.now = ev.at
	fn := ev.fn
	s.release(idx)
	s.pending--
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
	if len(s.heap) == 0 {
		return math.Inf(1)
	}
	return s.arena[s.heap[0]].at
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
