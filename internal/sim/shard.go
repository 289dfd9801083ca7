package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"
)

// ShardedSimulator runs one simulation on all cores: components are
// partitioned into shard groups, each shard owning a full event kernel
// (its own arena, 4-ary heap and sequence counter), and the shards advance
// together through conservative safe windows.
//
// The synchronization protocol is the bounded-lag variant of conservative
// (null-message) parallel discrete-event simulation. Let T be the earliest
// pending event time across all shards and L the lookahead — a lower bound
// on the delay of any cross-shard interaction (for simulated hardware, the
// minimum link latency or service time). Every event in [T, T+L) is safe
// to execute without coordination: an event at time u >= T can only
// influence another shard at or after u+L >= T+L, beyond the window. Each
// window therefore runs all shards up to the horizon H = T+L — in
// parallel when the window holds enough work to pay for the fork, inline
// otherwise (runOneWindow) — then a barrier delivers the buffered
// cross-shard events and the next window begins.
//
// Cross-shard sends take a batched data path built for throughput: each
// (source, destination) pair owns an outbox lane that the source appends
// to in send order — already sorted by construction when senders emit at
// monotone times, with a per-lane sort fallback otherwise. At the barrier
// the lanes feeding each destination are combined by a k-way streaming
// merge keyed on (time, source shard, source sequence) and the merged run
// is pushed into the destination heap as one batch, restoring heap order
// with a single bounded Floyd pass over the affected ancestor cone rather
// than a sift per event.
//
// Determinism is by construction, at any shard count:
//
//   - each shard's events execute in (time, seq) order exactly as a
//     lone Simulator would execute them;
//   - cross-shard events are buffered per (source, destination) lane and
//     delivered at the barrier in (time, source shard, source seq) order,
//     so the destination's tie-break sequence numbers never depend on
//     goroutine scheduling;
//   - the window horizon sequence depends only on the global event set
//     (the minimum next-event time is the same however components are
//     sharded), so barrier-driven logic fires identically at any shard
//     count.
//
// For results to be byte-identical across *different* shard counts, the
// usual kernel discipline applies, plus one rule: every component draws
// from its own RNG stream forked by component identity (the repository
// idiom), and same-timestamp events on *different* components must
// commute (their relative order is the one ordering that legitimately
// varies with the partition). Planes that cannot make same-time events
// commute order them explicitly instead: a Mailbox gathers same-time
// deliveries and replays them sorted by a placement-invariant key.
type ShardedSimulator struct {
	shards    []*Simulator
	lookahead Duration

	// lanes[src*k+dst] buffers cross-shard events emitted by shard src for
	// shard dst during the current window. Each shard appends only to its
	// own row of lanes, so the window needs no locks; the barrier drains
	// all of them with a per-destination k-way merge.
	lanes []lane
	// batch is the barrier's reusable per-destination merge buffer.
	batch []laneEvent
	// sendSeq[src] numbers shard src's sends, the final tie-break of the
	// delivery order.
	sendSeq []uint64

	// barrier, when non-nil, runs single-threaded after every window with
	// the window horizon. Fleet-wide logic (peer detectors sweeping
	// samples gathered shard-locally) hangs off this hook; it may inspect
	// any shard and schedule new events at or after the horizon.
	barrier func(horizon Time)

	// inWindow marks the window section, in which cross-shard sends
	// must respect the lookahead bound and barrier-only calls must not
	// run.
	inWindow bool

	// prof, when non-nil, accumulates barrier cost statistics.
	prof *BarrierStats

	// stopped requests that the window loop halt at the next barrier;
	// pending events stay queued, exactly as Simulator.Stop leaves them.
	stopped bool

	// placement, when non-nil, overrides the identity hash for the listed
	// stations — the construction-time rebalancing plan (SetPlacement).
	placement map[string]int

	// barrierWorkers and pool hold the reusable barrier worker pool
	// (BarrierPool), which fleet-wide barrier hooks fan sweeps across.
	barrierWorkers int
	pool           *WorkerPool

	// tel, when non-nil, holds the per-shard telemetry collectors
	// installed by SetTelemetry and folded into the destination sinks by
	// MergeTelemetry.
	tel *shardTelemetry
}

// lane is one (source, destination) outbox: events appended in source
// send order. sorted tracks whether the appended times are nondecreasing
// — the common case, since senders emit at now+latency with monotone now —
// letting the barrier skip the sort fallback.
type lane struct {
	evs    []laneEvent
	sorted bool
}

// laneEvent is a buffered cross-shard message within one lane: fn will be
// scheduled on the lane's destination at time at; seq is the source
// shard's send sequence, the final delivery tie-break.
type laneEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// NewSharded builds a simulator partitioned into the given number of
// shards with the given lookahead bound. A shard count of 1 degenerates to
// a windowed — but otherwise identical — serial simulation, which is the
// baseline the determinism suite compares against. The lookahead must be
// positive: it is the protocol's safety margin, derived from the minimum
// cross-shard interaction delay.
func NewSharded(shards int, lookahead Duration) *ShardedSimulator {
	if shards < 1 {
		panic(fmt.Sprintf("sim: sharded simulator needs at least 1 shard, got %d", shards))
	}
	if !(lookahead > 0) || math.IsInf(lookahead, 0) {
		panic(fmt.Sprintf("sim: sharded simulator needs a positive finite lookahead, got %v", lookahead))
	}
	ss := &ShardedSimulator{
		shards:    make([]*Simulator, shards),
		lookahead: lookahead,
		lanes:     make([]lane, shards*shards),
		sendSeq:   make([]uint64, shards),
	}
	for i := range ss.lanes {
		ss.lanes[i].sorted = true
	}
	for i := range ss.shards {
		ss.shards[i] = New()
	}
	return ss
}

// Shards returns the shard count.
func (ss *ShardedSimulator) Shards() int { return len(ss.shards) }

// Lookahead returns the conservative lookahead bound.
func (ss *ShardedSimulator) Lookahead() Duration { return ss.lookahead }

// Shard returns shard i's kernel. Components pinned to shard i are built
// on it exactly as they would be on a lone Simulator; during a window,
// shard i's events must touch only state owned by shard i.
func (ss *ShardedSimulator) Shard(i int) *Simulator { return ss.shards[i] }

// ShardFor assigns a component key to a shard: the placement plan's
// entry when one was installed (SetPlacement), else a stable FNV-1a hash
// of the identity — never of execution order, so a component lands on
// the same shard in every run at a given shard count and plan.
func (ss *ShardedSimulator) ShardFor(key string) int {
	if shard, ok := ss.placement[key]; ok {
		return shard
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(len(ss.shards)))
}

// Send schedules fn on shard dst at absolute time at, from code running on
// shard src. The event is appended to the (src, dst) outbox lane and
// delivered at the next barrier in (time, source shard, source sequence)
// order. Inside a window the time must respect the lookahead bound
// (at >= source now + lookahead) — that bound is what makes the window
// safe to run in parallel, so violating it panics loudly, naming the
// offending component, rather than corrupting the timeline. origin
// identifies the sending component for that diagnostic; it is not part of
// the delivery order. Same-shard sends take the same buffered path,
// keeping delivery semantics uniform.
func (ss *ShardedSimulator) Send(src, dst int, at Time, origin string, fn func()) {
	s := ss.shards[src]
	if ss.inWindow {
		if min := s.now + ss.lookahead; at < min {
			panic(fmt.Sprintf("sim: %s: cross-shard send (shard %d -> %d) at %v violates lookahead bound %v (now %v + lookahead %v)",
				origin, src, dst, at, min, s.now, ss.lookahead))
		}
	} else if at < s.now {
		panic(fmt.Sprintf("sim: %s: cross-shard send (shard %d -> %d) at %v before source now %v",
			origin, src, dst, at, s.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: %s: cross-shard send (shard %d -> %d) at non-finite time %v",
			origin, src, dst, at))
	}
	ln := &ss.lanes[src*len(ss.shards)+dst]
	if n := len(ln.evs); n > 0 && at < ln.evs[n-1].at {
		ln.sorted = false
	}
	ln.evs = append(ln.evs, laneEvent{at: at, seq: ss.sendSeq[src], fn: fn})
	ss.sendSeq[src]++
}

// SetBarrier installs (or, with nil, removes) the hook run single-threaded
// after every safe window with the window's horizon. All events before the
// horizon have executed on every shard when it runs, so it is the natural
// home for fleet-wide logic that must observe a consistent cut: it may
// read any shard's components and schedule follow-up events at or after
// the horizon.
//
// A coordinator has one hook. Installing a non-nil hook while another is
// live panics and leaves the live one in place: silently replacing it
// would cut its owner off from every later barrier, a correctness fault
// that must stop the run rather than skew it. The owner removes its hook
// with SetBarrier(nil) before another component may install one.
func (ss *ShardedSimulator) SetBarrier(fn func(horizon Time)) {
	if fn != nil && ss.barrier != nil {
		panic("sim: SetBarrier: the coordinator's barrier hook is already installed by another component " +
			"(two barrier-driven jobs on one coordinator, or a caller hook left in place); " +
			"the live hook must be removed with SetBarrier(nil) before a new one is installed")
	}
	ss.barrier = fn
}

// Now returns the committed global virtual time: the minimum of the shard
// clocks. Individual shards may be ahead within the current window.
func (ss *ShardedSimulator) Now() Time {
	t := ss.shards[0].now
	for _, s := range ss.shards[1:] {
		if s.now < t {
			t = s.now
		}
	}
	return t
}

// EventsFired returns the total events executed across all shards: the
// kernel fires exactly what was scheduled, at any shard count. Callers
// that schedule per-shard bookkeeping events (e.g. one sampler chain per
// shard) must subtract them before reporting a shard-invariant figure, as
// the fleet experiment does.
func (ss *ShardedSimulator) EventsFired() uint64 {
	var n uint64
	for _, s := range ss.shards {
		n += s.fired
	}
	return n
}

// Pending returns the number of live events queued across all shards plus
// any cross-shard events awaiting delivery.
func (ss *ShardedSimulator) Pending() int {
	n := 0
	for _, s := range ss.shards {
		n += len(s.heap)
	}
	for i := range ss.lanes {
		n += len(ss.lanes[i].evs)
	}
	return n
}

// nextTime returns the earliest pending event time across shards and
// undelivered cross-shard sends, or +Inf when everything is drained.
func (ss *ShardedSimulator) nextTime() Time {
	t := math.Inf(1)
	for _, s := range ss.shards {
		if at := s.nextAt(); at < t {
			t = at
		}
	}
	for i := range ss.lanes {
		for _, ev := range ss.lanes[i].evs {
			if ev.at < t {
				t = ev.at
			}
		}
	}
	return t
}

// Run executes safe windows until every shard's queue and every lane
// drains.
func (ss *ShardedSimulator) Run() { ss.RunUntil(math.Inf(1)) }

// Stop requests that the run halt after the current window's barrier.
// Only the barrier hook may call it — it is the single-threaded point with
// authority over the whole fleet — and pending events stay queued, exactly
// as Simulator.Stop leaves them. The next Run or RunUntil clears the
// request.
func (ss *ShardedSimulator) Stop() { ss.stopped = true }

// RunUntil executes all events scheduled at or before limit, window by
// window, then advances every shard clock to exactly limit (when finite).
// Events scheduled after limit remain queued, exactly as Simulator.RunUntil
// leaves them.
func (ss *ShardedSimulator) RunUntil(limit Time) {
	prof := ss.prof
	ss.stopped = false
	for !ss.stopped {
		t := ss.nextTime()
		if t > limit || math.IsInf(t, 1) {
			break
		}
		h := t + ss.lookahead
		var wall time.Time
		var fired0 uint64
		if prof != nil {
			wall = time.Now()
			fired0 = ss.EventsFired()
		}
		active, forked := ss.runOneWindow(t, h, limit)
		if prof != nil {
			mid := time.Now()
			prof.WindowNanos += mid.Sub(wall).Nanoseconds()
			prof.Windows++
			if active <= 1 {
				prof.SoloWindows++
			}
			if forked {
				prof.ForkedWindows++
			}
			df := ss.EventsFired() - fired0
			prof.Fired += df
			if df > prof.MaxWindowFired {
				prof.MaxWindowFired = df
			}
			wall = mid
		}
		ss.deliver()
		var delivered time.Time
		if prof != nil {
			delivered = time.Now()
			prof.DeliverNanos += delivered.Sub(wall).Nanoseconds()
		}
		if ss.barrier != nil {
			if ss.pool != nil {
				ss.pool.t, ss.pool.h = t, h
			}
			ss.barrier(h)
		}
		if prof != nil {
			end := time.Now()
			prof.SweepNanos += end.Sub(delivered).Nanoseconds()
			prof.BarrierNanos += end.Sub(wall).Nanoseconds()
		}
	}
	if !ss.stopped && !math.IsInf(limit, 1) {
		for _, s := range ss.shards {
			if s.now < limit {
				s.now = limit
			}
		}
	}
}

// runOneWindow executes every shard's events in [t, h) ∩ [0, limit]. It
// forks a goroutine per eligible shard only when the fork pays for itself
// — at least two shards each hold forkMinEvents eligible events — and
// otherwise runs the eligible shards inline on the coordinator, in shard
// order. Shards touch only their own state inside a window, so the two
// schedules give identical results; a window with fewer than two active
// shards never forks, so a single-shard configuration never pays
// goroutine overhead. It returns the number of shards that had eligible
// work and whether the window forked. A panic on any shard, forked or
// inline, is re-raised on the coordinator as a *WorkerPanic naming the
// shard and the window — the lowest such shard when several panicked.
func (ss *ShardedSimulator) runOneWindow(t, h, limit Time) (active int, forked bool) {
	eligible := func(s *Simulator) bool {
		at := s.nextAt()
		return at < h && at <= limit
	}
	for _, s := range ss.shards {
		if eligible(s) {
			active++
		}
	}
	if active >= 2 {
		heavy := 0
		for _, s := range ss.shards {
			if heavy < 2 && s.holdsForkWork(h, limit) {
				heavy++
			}
		}
		forked = heavy >= 2
	}
	ss.inWindow = true
	var failed *WorkerPanic
	if forked {
		panics := make([]*WorkerPanic, len(ss.shards))
		var wg sync.WaitGroup
		for i, s := range ss.shards {
			if !eligible(s) {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				panics[i] = ss.runShard(i, t, h, limit)
			}(i)
		}
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				failed = p
				break
			}
		}
	} else {
		for i, s := range ss.shards {
			if eligible(s) {
				if failed = ss.runShard(i, t, h, limit); failed != nil {
					break
				}
			}
		}
	}
	ss.inWindow = false
	if failed != nil {
		panic(failed)
	}
	return active, forked
}

// runShard runs shard i's part of the window [t, h), returning a panic
// raised by one of its events as a *WorkerPanic instead of unwinding.
func (ss *ShardedSimulator) runShard(i int, t, h, limit Time) (p *WorkerPanic) {
	defer func() {
		if r := recover(); r != nil {
			p = capturePanic(r, fmt.Sprintf("shard %d", i), t, h)
		}
	}()
	ss.shards[i].runWindow(h, limit)
	return nil
}

// holdsForkWork reports whether at least forkMinEvents queued events fall
// in the window (before h and not after limit). The events in the window
// form a subtree at the root of the 4-ary heap — every ancestor of an
// event is due no later than it — so a depth-first walk that prunes at
// the first ineligible node visits only that subtree and its frontier,
// and stopping at forkMinEvents bounds the walk at O(forkMinEvents).
// Events the window would spawn cannot be counted ahead of time, which
// errs toward running inline.
func (s *Simulator) holdsForkWork(h, limit Time) bool {
	// Each eligible node visited pops one position and pushes at most
	// heapArity, and the walk stops at the forkMinEvents-th, so the stack
	// never holds more than 1 + (heapArity-1)·(forkMinEvents-1) positions.
	if len(s.heap) < forkMinEvents {
		return false
	}
	var stack [1 + (heapArity-1)*(forkMinEvents-1)]int32
	sp, found := 1, 0 // stack[0] holds position 0, the root
	for sp > 0 {
		sp--
		i := int(stack[sp])
		if at := s.arena[s.heap[i]].at; at >= h || at > limit {
			continue
		}
		found++
		if found >= forkMinEvents {
			return true
		}
		first := i*heapArity + 1
		for c := first; c < first+heapArity && c < len(s.heap); c++ {
			stack[sp] = int32(c)
			sp++
		}
	}
	return false
}

// deliver drains every outbox lane into its destination shard. For each
// destination the k source lanes — each already in (time, seq) order — are
// combined by a streaming k-way merge keyed on (time, source shard, source
// seq), and the merged run is batch-pushed into the destination heap. The
// global delivery order this produces is exactly the old single-sort
// order: sequence numbers only break ties within one shard's heap, and
// within each destination the merge emits (time, src, seq) order.
func (ss *ShardedSimulator) deliver() {
	k := len(ss.shards)
	total := 0
	for i := range ss.lanes {
		ln := &ss.lanes[i]
		total += len(ln.evs)
		if !ln.sorted {
			sortLane(ln.evs)
			ln.sorted = true
		}
	}
	if total == 0 {
		return
	}
	if ss.prof != nil {
		ss.prof.Delivered += uint64(total)
	}
	for dst := 0; dst < k; dst++ {
		ss.batch = ss.batch[:0]
		ss.mergeForDst(dst)
		if len(ss.batch) > 0 {
			ss.shards[dst].scheduleBatch(ss.batch)
			for i := range ss.batch {
				ss.batch[i].fn = nil
			}
		}
	}
	for i := range ss.lanes {
		ln := &ss.lanes[i]
		for j := range ln.evs {
			ln.evs[j].fn = nil
		}
		ln.evs = ln.evs[:0]
	}
}

// mergeForDst appends destination dst's lanes to ss.batch in (time, source
// shard, source seq) order. Source count k is small (≤ GOMAXPROCS), so a
// linear scan of the lane heads beats a tournament tree: each pick is a
// handful of predictable compares over cache-resident heads.
func (ss *ShardedSimulator) mergeForDst(dst int) {
	k := len(ss.shards)
	// heads[src] indexes the next unconsumed event in lane (src, dst).
	var headsArr [16]int
	var heads []int
	if k <= len(headsArr) {
		heads = headsArr[:k]
		for i := range heads {
			heads[i] = 0
		}
	} else {
		heads = make([]int, k)
	}
	for {
		best := -1
		var bestAt Time
		for src := 0; src < k; src++ {
			evs := ss.lanes[src*k+dst].evs
			if heads[src] >= len(evs) {
				continue
			}
			at := evs[heads[src]].at
			// Strict < keeps the lowest source shard on ties: the
			// (time, src, seq) delivery key.
			if best < 0 || at < bestAt {
				best, bestAt = src, at
			}
		}
		if best < 0 {
			return
		}
		ss.batch = append(ss.batch, ss.lanes[best*k+dst].evs[heads[best]])
		heads[best]++
	}
}

// sortLane restores a lane's (time, seq) order — the fallback for the rare
// sender that emits at non-monotone times within one window. seq is unique
// within a lane, so the unstable sort is deterministic.
func sortLane(evs []laneEvent) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
}

// scheduleBatch pushes a merged run of cross-shard events into the shard's
// heap as one batch: allocate and append every event — assigning sequence
// numbers in batch order, which is the delivery order — then restore heap
// order with one bounded Floyd pass over the ancestor cone of the appended
// region. The pass costs O(batch + log heap) instead of a sift per event,
// and any valid heap arrangement pops in identical (time, seq) order, so
// the batch path is byte-equivalent to per-event At calls.
func (s *Simulator) scheduleBatch(evs []laneEvent) {
	n0 := len(s.heap)
	for i := range evs {
		idx := s.alloc(evs[i].at, evs[i].fn)
		s.heap = append(s.heap, idx)
		s.arena[idx].pos = int32(n0 + i)
	}
	n := len(s.heap)
	if n == n0 {
		return
	}
	if n0 == 0 {
		for i := (n - 2) / heapArity; i >= 0; i-- {
			s.siftDown(i)
		}
		return
	}
	// Sift down every ancestor of the appended region, deepest level
	// first: when a node is processed its children's subtrees are already
	// valid heaps (appended leaves trivially, older nodes by induction).
	lo, hi := (n0-1)/heapArity, (n-2)/heapArity
	for {
		for i := hi; i >= lo; i-- {
			s.siftDown(i)
		}
		if lo == 0 {
			return
		}
		lo, hi = (lo-1)/heapArity, (hi-1)/heapArity
	}
}

// BarrierStats accumulates the cost profile of the sharded run: how many
// safe windows executed, how much work each held, how much of it crossed
// shards, and — wall-clock, so nondeterministic and excluded from
// deterministic artifacts — where the time went. Enable with Profile.
type BarrierStats struct {
	// Windows is the number of safe windows executed.
	Windows uint64
	// Fired is the number of events executed inside windows.
	Fired uint64
	// Delivered is the number of cross-shard events delivered at barriers.
	Delivered uint64
	// SoloWindows counts windows in which at most one shard had eligible
	// work — zero parallelism to harvest. They always run inline, but so
	// do multi-shard windows too small to pay for a fork; ForkedWindows
	// counts the rest.
	SoloWindows uint64
	// ForkedWindows counts windows that ran on one goroutine per active
	// shard: at least two shards each held forkMinEvents eligible events.
	// Deterministic for a given build; race builds fork every window with
	// two or more active shards.
	ForkedWindows uint64
	// MaxWindowFired is the largest single-window event count.
	MaxWindowFired uint64
	// WindowNanos and BarrierNanos split the run's wall-clock between the
	// parallel window region and the barrier (delivery + barrier hook).
	// DeliverNanos and SweepNanos split BarrierNanos further: the
	// cross-shard merge-and-push (the merge wall) versus the barrier hook
	// (the sweep wall — where the fleet's detection sweep runs, the part
	// BarrierParallelism exists to shrink). BarrierNanos is always their
	// sum. Wall-clock: nondeterministic across runs and hosts.
	WindowNanos  int64
	BarrierNanos int64
	DeliverNanos int64
	SweepNanos   int64
}

// Profile enables barrier cost accounting (idempotent) and returns the
// live stats, which accumulate across RunUntil calls. Collection costs a
// couple of clock reads per window, so it is off by default.
func (ss *ShardedSimulator) Profile() *BarrierStats {
	if ss.prof == nil {
		ss.prof = &BarrierStats{}
	}
	return ss.prof
}

// PerShardFired returns the events executed by each shard so far — the
// imbalance axis of the barrier profile. Unlike BarrierStats it needs no
// enabling; the kernel counts fired events regardless.
func (ss *ShardedSimulator) PerShardFired() []uint64 {
	out := make([]uint64, len(ss.shards))
	for i, s := range ss.shards {
		out[i] = s.fired
	}
	return out
}

// Mailbox orders same-time cross-shard deliveries on one component by a
// placement-invariant key. Same-time events delivered from different
// source shards arrive in (source shard, source seq) order — which depends
// on the partition — so a component that cannot make them commute posts
// each delivery into its mailbox instead of acting on it directly. The
// mailbox schedules one drain event at the same instant; because every
// same-time delivery is batch-inserted at a barrier before the window that
// executes them, the drain's sequence number exceeds them all, and the
// drain replays the posts sorted by caller-supplied key. Keys must be
// unique per instant (the idiom is senderID<<32 | senderSeq).
type Mailbox struct {
	s         *Simulator
	pending   []mailboxItem
	scheduled bool
}

type mailboxItem struct {
	key uint64
	fn  func()
}

// NewMailbox builds a mailbox draining on the given shard kernel.
func NewMailbox(s *Simulator) *Mailbox { return &Mailbox{s: s} }

// Post enqueues fn under key at the current instant; the drain at the end
// of this instant runs all posts in ascending key order.
func (m *Mailbox) Post(key uint64, fn func()) {
	m.pending = append(m.pending, mailboxItem{key: key, fn: fn})
	if !m.scheduled {
		m.scheduled = true
		m.s.At(m.s.now, m.drain)
	}
}

// drain replays the pending posts in key order and resets the mailbox.
func (m *Mailbox) drain() {
	m.scheduled = false
	items := m.pending
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })
	// Detach before running: a post during replay starts a fresh batch
	// with its own drain, in a fresh buffer.
	m.pending = nil
	for i := range items {
		items[i].fn()
		items[i].fn = nil
	}
	if m.pending == nil {
		m.pending = items[:0]
	}
}
