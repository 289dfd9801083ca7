package sim

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"time"
)

// ShardedSimulator runs one simulation on all cores: components are
// partitioned into shard groups, each shard owning a full event kernel
// (its own arena, pending set and sequence counter), and the shards advance
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
// Cross-shard sends are buffered: each (source, destination) pair owns an
// outbox lane that the source appends to in send order. At the barrier the
// lanes feeding each destination are concatenated in source-shard order,
// stable-sorted by time — which yields (time, source shard, source
// sequence) order — and each event is scheduled on the destination with
// At, so a delivery into the destination's past panics like any other.
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
	// them destination by destination.
	lanes [][]laneEvent
	// batch is the barrier's reusable per-destination delivery buffer.
	batch []laneEvent
	// active is the current window's reusable list of eligible shards.
	active []int

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

	// pool is the reusable barrier worker pool (BarrierPool), which
	// fleet-wide barrier hooks fan sweeps across.
	pool *WorkerPool

	// tel, when non-nil, holds the per-shard telemetry collectors
	// installed by SetTelemetry and folded into the destination sinks by
	// MergeTelemetry.
	tel *shardTelemetry
}

// laneEvent is a buffered cross-shard message within one outbox lane: fn
// will be scheduled on the lane's destination at time at. A lane holds its
// events in source send order, the final delivery tie-break.
type laneEvent struct {
	at Time
	fn func()
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
		lanes:     make([][]laneEvent, shards*shards),
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

// ShardFor assigns a component key to a shard by a stable FNV-1a hash of
// the identity — never of execution order, so a component lands on the
// same shard in every run at a given shard count.
func (ss *ShardedSimulator) ShardFor(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(len(ss.shards)))
}

// Send schedules fn on shard dst at absolute time at, from code running on
// shard src. The event is appended to the (src, dst) outbox lane and
// delivered at the next barrier — after the next window has run — in
// (time, source shard, source sequence) order. Inside a window the time
// must respect the lookahead bound (at >= source now + lookahead) — that
// bound is what makes the window safe to run in parallel, so violating it
// panics loudly, naming the offending component, rather than corrupting
// the timeline. Outside a window (setup code or a barrier hook) only
// at >= source now is checked here; a send that the destination has run
// past by the time it is delivered panics at the barrier, in
// Simulator.At, rather than run the destination's clock backwards. origin
// identifies the sending component for the diagnostics; it is not part of
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
	*ln = append(*ln, laneEvent{at: at, fn: fn})
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
		n += s.Pending()
	}
	for _, ln := range ss.lanes {
		n += len(ln)
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
	for _, ln := range ss.lanes {
		for _, ev := range ln {
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
			prof.SweepNanos += time.Since(delivered).Nanoseconds()
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
// forks only when the fork pays for itself — at least two shards each
// hold forkMinEvents eligible events — running the first eligible shard on
// the coordinator and each other one on a goroutine of its own (forkJoin);
// otherwise it runs the eligible shards inline on the coordinator, in
// shard order. Shards touch only their own state inside a window, so the
// two schedules give identical results; a window with fewer than two
// active shards never forks, so a single-shard configuration never pays
// goroutine overhead. It returns the number of shards that had eligible
// work and whether the window forked. A panic on any shard, forked or
// inline, is re-raised on the coordinator as a *WorkerPanic naming the
// shard and the window — the lowest such shard when several panicked.
func (ss *ShardedSimulator) runOneWindow(t, h, limit Time) (active int, forked bool) {
	ss.active = ss.active[:0]
	for i, s := range ss.shards {
		if s.eligible(h, limit) {
			ss.active = append(ss.active, i)
		}
	}
	active = len(ss.active)
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
		failed = forkJoin(active, func(i int) *WorkerPanic {
			return ss.runShard(ss.active[i], t, h, limit)
		})
	} else {
		for _, i := range ss.active {
			if failed = ss.runShard(i, t, h, limit); failed != nil {
				break
			}
		}
	}
	ss.inWindow = false
	if failed != nil {
		panic(failed)
	}
	return active, forked
}

// eligible reports whether the shard's next event falls in the window:
// before the horizon h and not after limit.
func (s *Simulator) eligible(h, limit Time) bool {
	at := s.nextAt()
	return at < h && at <= limit
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
// in the window (before h and not after limit). The eligible chains form a
// subtree at the root of the 4-ary heap — every ancestor of a chain head is
// due no later than it — so a depth-first walk that prunes at the first
// ineligible head visits only that subtree and its frontier, counting each
// eligible chain's live events, and stopping at forkMinEvents bounds the
// walk at O(forkMinEvents). Events the window would spawn cannot be
// counted ahead of time, which errs toward running inline.
func (s *Simulator) holdsForkWork(h, limit Time) bool {
	if s.pending < forkMinEvents {
		return false
	}
	// Each eligible head visited pops one position, pushes at most
	// heapArity and counts at least itself, and the walk stops at the
	// forkMinEvents-th event, so the stack never holds more than
	// 1 + (heapArity-1)·(forkMinEvents-1) positions.
	var stack [1 + (heapArity-1)*(forkMinEvents-1)]int32
	found := 0
	sp := 1 // stack[0] holds position 0, the root
	for sp > 0 {
		sp--
		i := int(stack[sp])
		idx := s.heap[i]
		if at := s.arena[idx].at; at >= h || at > limit {
			continue
		}
		for ; idx >= 0; idx = s.arena[idx].next {
			if s.arena[idx].fn == nil {
				continue
			}
			if found++; found >= forkMinEvents {
				return true
			}
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
// destination the incoming lanes are appended in source-shard order and
// stable-sorted by time; each lane is already in source send order, so the
// batch comes out in (time, source shard, source seq) order. Scheduling
// the batch with At then assigns the destination's sequence numbers in that
// same order, so tie-breaks never depend on goroutine scheduling — and a
// delivery into the destination's past panics instead of being run late.
func (ss *ShardedSimulator) deliver() {
	k := len(ss.shards)
	total := 0
	for _, ln := range ss.lanes {
		total += len(ln)
	}
	if total == 0 {
		return
	}
	if ss.prof != nil {
		ss.prof.Delivered += uint64(total)
	}
	for dst := 0; dst < k; dst++ {
		ss.batch = ss.batch[:0]
		for src := 0; src < k; src++ {
			ln := ss.lanes[src*k+dst]
			ss.batch = append(ss.batch, ln...)
			clear(ln)
			ss.lanes[src*k+dst] = ln[:0]
		}
		slices.SortStableFunc(ss.batch, func(a, b laneEvent) int { return cmp.Compare(a.at, b.at) })
		s := ss.shards[dst]
		for i := range ss.batch {
			s.At(ss.batch[i].at, ss.batch[i].fn)
			ss.batch[i].fn = nil
		}
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
	// ForkedWindows counts windows whose active shards ran concurrently,
	// the first on the coordinator and each other on a goroutine of its
	// own: at least two shards each held forkMinEvents eligible events.
	// Deterministic for a given build; race builds fork every window with
	// two or more active shards.
	ForkedWindows uint64
	// MaxWindowFired is the largest single-window event count.
	MaxWindowFired uint64
	// WindowNanos is the run's wall-clock in the parallel window region;
	// DeliverNanos and SweepNanos split the barrier's: the cross-shard
	// sort-and-schedule (the merge wall) versus the barrier hook (the
	// sweep wall — where the fleet's detection sweep runs, fanned across
	// the barrier pool's one worker per shard). Wall-clock:
	// nondeterministic across runs and hosts.
	WindowNanos  int64
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
