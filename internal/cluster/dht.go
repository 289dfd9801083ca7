package cluster

import (
	"fmt"

	"failstutter/internal/detect"
	"failstutter/internal/sim"
	"failstutter/internal/stats"
	"failstutter/internal/trace"
)

// DHTParams configures a replicated in-memory hash table in the style of
// Gribble et al.'s distributed data structures: every key is stored on
// Replication consecutive nodes, and a put is acknowledged according to
// the replication mode.
type DHTParams struct {
	// Nodes is the number of storage bricks.
	Nodes int
	// Replication is the number of copies per key (>= 1).
	Replication int
	// OpQuantum is the virtual service time of one operation at node
	// speed 1.
	OpQuantum sim.Duration
	// Adaptive enables fail-stutter awareness: a peer-relative detector
	// watches node throughput, and puts touching a flagged replica are
	// acknowledged without waiting for it; the write is still delivered
	// (hinted handoff) and counted as redundancy debt in Hints.
	Adaptive bool
	// SampleEvery is the adaptive detector's sampling period (default
	// 20 op quanta).
	SampleEvery sim.Duration
	// Threshold is the peer-relative fraction below which a node is
	// flagged (default 0.5).
	Threshold float64
}

// DHT is the running structure, entirely event-driven on its home shard's
// kernel: node service, replication acks, GC pauses, and the detector are
// all simulator events. Create with NewDHT, then drive with RunLoad, or
// with Put followed by running the coordinator.
type DHT struct {
	p     DHTParams
	ss    *sim.ShardedSimulator
	home  int            // the shard the whole table is pinned to
	sim   *sim.Simulator // the home shard's kernel
	nodes []*DHTNode
	flags []bool
	hints int64
	puts  int64

	// Detector state (adaptive mode), persistent across RunLoad calls.
	lastUnits  []float64
	rates      []float64
	medScratch []float64

	// tracer, when non-nil, records one "put" span per ack group on the
	// "dht" track (issue to acknowledgment) plus hinted-handoff instants.
	tracer *trace.Tracer
	track  trace.TrackID

	// audited, when non-nil, logs the adaptive detector's flag transitions
	// per node with peer-relative evidence.
	audited []*detect.Audited
	audDet  []*flagDetector

	// Freelists keep the steady-state put path allocation-free: one op
	// per replica write, one ack group per put.
	opFree  []*dhtOp
	ackFree []*ackGroup

	repScratch []int
}

// DHTNode is one storage brick: a queueing station serving one operation
// per OpQuantum at speed 1. Speed is the injection point for GC pauses
// and slowdowns.
type DHTNode struct {
	st *sim.Station
	// gcGen serializes overlapping GC schedules: a pause-recovery event
	// only restores speed if no newer stall has started since.
	gcGen int
	// syncHead/syncTail is the intrusive FIFO of synchronous replica
	// writes pending on this node. When the detector flags the node these
	// are released as hinted handoffs: acknowledged immediately, still
	// delivered — otherwise every client blocked on the stutterer at flag
	// time would stay blocked for the whole stall.
	syncHead, syncTail *dhtOp
}

// SetSpeed sets the node's speed multiplier; zero stalls it, preserving
// progress on the operation in service.
func (n *DHTNode) SetSpeed(s float64) { n.st.SetMultiplier(s) }

// Speed returns the node's current speed multiplier.
func (n *DHTNode) Speed() float64 { return n.st.Multiplier() }

// UnitsDone returns the node's cumulative operations served, including
// partial progress on the one in service — the smooth counter the
// detector probes.
func (n *DHTNode) UnitsDone() float64 {
	return float64(n.st.Completed()) + n.st.ServedInCurrent()
}

// Outstanding returns enqueued-but-unfinished operations, including the
// one in service — queue length alone misses it, and a node blocked on
// its only op would otherwise look idle to the detector.
func (n *DHTNode) Outstanding() int {
	out := n.st.QueueLen()
	if n.st.InService() != nil {
		out++
	}
	return out
}

// Station returns the node's underlying queueing station.
func (n *DHTNode) Station() *sim.Station { return n.st }

// dhtOp is one replica write: a reusable unit-size request bound to its
// node's station, linked to the put's ack group (nil for hinted writes).
type dhtOp struct {
	d     *DHT
	req   sim.Request
	group *ackGroup

	// node is the brick this write targets; prev/next/linked thread the
	// op through that node's pending-sync list while group is owed.
	node       int
	prev, next *dhtOp
	linked     bool
}

// ackGroup counts down outstanding synchronous replica writes for one
// put and fires the caller's callback on the last ack.
type ackGroup struct {
	need  int
	onAck func()
	// span is the put's open tracer span, zero when tracing is off.
	span trace.SpanID
}

// NewDHT builds the table under the coordinator, pinned as a group to the
// shard its identity ("dht") hashes to. The pin is load-borne, not
// incidental: a synchronous put's ack path closes the moment the last
// replica write completes — a zero-latency interaction that admits no
// positive lookahead — so the bricks cannot be split across shards. Running
// under the coordinator still matters: the table shares the fleet's window
// clock with whatever else the experiment runs, and its results are
// trivially byte-identical at every shard count.
func NewDHT(ss *sim.ShardedSimulator, p DHTParams) *DHT {
	if p.Nodes < 1 || p.Replication < 1 || p.Replication > p.Nodes || p.OpQuantum <= 0 {
		panic("cluster: invalid DHT params")
	}
	if p.Threshold <= 0 {
		p.Threshold = 0.5
	}
	if p.SampleEvery <= 0 {
		p.SampleEvery = 20 * p.OpQuantum
	}
	home := ss.ShardFor("dht")
	s := ss.Shard(home)
	d := &DHT{
		p:          p,
		ss:         ss,
		home:       home,
		sim:        s,
		flags:      make([]bool, p.Nodes),
		lastUnits:  make([]float64, p.Nodes),
		rates:      make([]float64, p.Nodes),
		medScratch: make([]float64, p.Nodes),
		repScratch: make([]int, p.Replication),
	}
	for i := 0; i < p.Nodes; i++ {
		d.nodes = append(d.nodes, &DHTNode{
			st: sim.NewStation(s, fmt.Sprintf("node-%d", i), 1/p.OpQuantum),
		})
	}
	return d
}

// SetTracer attaches a span tracer: every node's station records its
// queue/service spans, each put records an ack-group span on the "dht"
// track from issue to acknowledgment (the key as the span arg), and every
// hinted-handoff release is an instant. A nil tracer detaches.
func (d *DHT) SetTracer(t *trace.Tracer) {
	// The DHT lives entirely on its home shard; with per-shard collectors
	// installed, its spans record there and MergeTelemetry folds them into
	// the tracer passed here.
	if t != nil {
		if st := d.ss.ShardTracer(d.home); st != nil {
			t = st
		}
	}
	d.tracer = t
	if t != nil {
		d.track = t.Track("dht")
	}
	for _, n := range d.nodes {
		n.st.SetTracer(t)
	}
}

// EnableAudit logs the adaptive detector's per-node flag transitions to
// the given audit trail, wrapping each node's flag in a detect.Audited
// transition logger with the sampled rate and fleet median as evidence.
func (d *DHT) EnableAudit(log *trace.AuditLog) {
	// Same redirect as SetTracer: node verdicts are issued on the home
	// shard, so they record into its audit collector and reach the log
	// passed here through the deterministic (time, component) merge.
	if log != nil {
		if sa := d.ss.ShardAudit(d.home); sa != nil {
			log = sa
		}
	}
	n := len(d.nodes)
	d.audDet = make([]*flagDetector, n)
	d.audited = make([]*detect.Audited, n)
	for i := 0; i < n; i++ {
		d.audDet[i] = &flagDetector{flagged: &d.flags[i], threshold: d.p.Threshold}
		d.audited[i] = detect.NewAudited(d.audDet[i], log, fmt.Sprintf("node-%d", i))
	}
}

// Node returns the i'th storage brick.
func (d *DHT) Node(i int) *DHTNode { return d.nodes[i] }

// Puts returns completed (acknowledged) puts.
func (d *DHT) Puts() int64 { return d.puts }

// Hints returns the number of replica writes acknowledged before
// delivery under the adaptive mode — the redundancy debt taken on to
// ride out a stutter.
func (d *DHT) Hints() int64 { return d.hints }

// Flagged reports whether node i is currently considered
// performance-faulty by the detector.
func (d *DHT) Flagged(i int) bool { return d.flags[i] }

// replicas fills the reused scratch slice with the node indices holding
// the key: FNV-64a over the key's little-endian bytes picks the base,
// then Replication consecutive nodes.
func (d *DHT) replicas(key uint64) []int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(key >> (8 * i)))
		h *= prime64
	}
	base := int(h % uint64(d.p.Nodes))
	for i := range d.repScratch {
		d.repScratch[i] = (base + i) % d.p.Nodes
	}
	return d.repScratch
}

func (d *DHT) getOp() *dhtOp {
	if n := len(d.opFree); n > 0 {
		op := d.opFree[n-1]
		d.opFree = d.opFree[:n-1]
		return op
	}
	op := &dhtOp{d: d}
	op.req.Size = 1
	op.req.OnDone = op.done
	return op
}

func (op *dhtOp) done(*sim.Request) {
	d := op.d
	if op.linked {
		d.unlink(op)
	}
	g := op.group
	op.group = nil
	d.opFree = append(d.opFree, op)
	if g != nil {
		d.groupAck(g)
	}
}

// groupAck counts one replica ack against the group, completing the put
// on the last one.
func (d *DHT) groupAck(g *ackGroup) {
	g.need--
	if g.need != 0 {
		return
	}
	d.puts++
	if g.span != 0 {
		d.tracer.End(g.span, d.sim.Now())
		g.span = 0
	}
	cb := g.onAck
	g.onAck = nil
	d.ackFree = append(d.ackFree, g)
	if cb != nil {
		cb()
	}
}

// unlink removes op from its node's pending-sync list.
func (d *DHT) unlink(op *dhtOp) {
	n := d.nodes[op.node]
	if op.prev != nil {
		op.prev.next = op.next
	} else {
		n.syncHead = op.next
	}
	if op.next != nil {
		op.next.prev = op.prev
	} else {
		n.syncTail = op.prev
	}
	op.prev, op.next = nil, nil
	op.linked = false
}

// link appends op to its node's pending-sync list.
func (d *DHT) link(op *dhtOp) {
	n := d.nodes[op.node]
	op.prev = n.syncTail
	op.next = nil
	op.linked = true
	if n.syncTail != nil {
		n.syncTail.next = op
	} else {
		n.syncHead = op
	}
	n.syncTail = op
}

// releaseSync converts every synchronous write pending on node i into a
// hinted handoff: the ack is granted now, the write itself stays queued
// for delivery. Called on the flag transition so clients blocked on the
// stutterer resume immediately. The list is detached first: an ack
// callback may issue new puts, and if every replica of a new key is
// flagged its fallback-sync writes must not be converted in the same
// sweep.
func (d *DHT) releaseSync(i int) {
	if d.tracer != nil {
		d.tracer.Instant(d.track, "hinted-handoff", "dht", d.sim.Now())
	}
	n := d.nodes[i]
	op := n.syncHead
	n.syncHead, n.syncTail = nil, nil
	for op != nil {
		next := op.next
		op.prev, op.next, op.linked = nil, nil, false
		g := op.group
		op.group = nil
		d.hints++
		d.groupAck(g)
		op = next
	}
}

// Put stores the key, delivering one write per replica, and schedules
// onAck for the instant the put is acknowledged per the replication
// mode. onAck may be nil. The write happens as the simulator runs.
func (d *DHT) Put(key uint64, onAck func()) {
	reps := d.replicas(key)
	healthy := len(reps)
	if d.p.Adaptive {
		healthy = 0
		for _, r := range reps {
			if !d.flags[r] {
				healthy++
			}
		}
	}
	// Every replica stuttering means there is no healthy copy to anchor
	// on: fall back to synchronous semantics on the full set.
	allSync := healthy == len(reps) || healthy == 0
	var g *ackGroup
	if n := len(d.ackFree); n > 0 {
		g = d.ackFree[n-1]
		d.ackFree = d.ackFree[:n-1]
	} else {
		g = &ackGroup{}
	}
	if allSync {
		g.need = len(reps)
	} else {
		g.need = healthy
	}
	g.onAck = onAck
	if d.tracer != nil {
		g.span = d.tracer.BeginArg(d.track, "put", "dht", 0, d.sim.Now(), int64(key))
	}
	for _, r := range reps {
		op := d.getOp()
		op.node = r
		if allSync || !d.flags[r] {
			op.group = g
			d.link(op)
		} else {
			d.hints++
		}
		d.nodes[r].st.Submit(&op.req)
	}
}

// sample is one detector tick: peer-relative throughput comparison, with
// flag hysteresis on backlog.
func (d *DHT) sample() {
	for i, n := range d.nodes {
		cur := n.UnitsDone()
		d.rates[i] = cur - d.lastUnits[i]
		d.lastUnits[i] = cur
	}
	// rates stays index-aligned with the nodes below, so the in-place
	// median works on a reused scratch copy.
	med := stats.MedianInPlace(d.medScratch[:copy(d.medScratch, d.rates)])
	for i := range d.rates {
		backlog := d.nodes[i].Outstanding()
		switch {
		case backlog == 0:
			// Nothing outstanding: no evidence of ongoing stutter; the
			// next put will re-probe the node.
			d.flags[i] = false
		case med <= 0:
			// Fleet idle but this node has a backlog: keep the current
			// assessment.
		default:
			// Flag divergent nodes that have work they are failing to do.
			// Recovery requires both a healthy rate and a drained backlog
			// — unflagging onto a mountain of hinted writes would stall
			// every subsequent synchronous put behind them.
			slow := d.rates[i] < d.p.Threshold*med
			flag := slow || backlog > 16
			if flag && !d.flags[i] {
				d.releaseSync(i)
			}
			d.flags[i] = flag
		}
	}
	if d.audited != nil {
		now := d.sim.Now()
		for i, a := range d.audited {
			d.audDet[i].med = med
			a.Observe(now, d.rates[i])
		}
	}
}

// RunLoad drives the table with the given number of closed-loop clients
// for the virtual duration, using sequential keys per client (uniform
// placement). Each client issues its next put the instant the previous
// one is acknowledged. The coordinator runs until every put issued before
// the deadline has been acknowledged; it returns the number of
// acknowledged puts. RunLoad owns the coordinator's barrier hook for its
// duration.
func (d *DHT) RunLoad(clients int, duration sim.Duration) int64 {
	if clients < 1 || duration <= 0 {
		panic("cluster: RunLoad needs at least one client and a positive duration")
	}
	s := d.sim
	start := d.puts
	deadline := s.Now() + duration
	active := clients
	loadRunning := true
	// An armed GC schedule would keep the home shard's event chain alive
	// forever, so the run is stopped from the barrier the moment the last
	// client acknowledges. Counters are untouched by anything after that
	// ack — stale load ticks see loadRunning false — so the extra events
	// the final window runs change nothing.
	d.ss.SetBarrier(func(h sim.Time) {
		if active == 0 {
			d.ss.Stop()
		}
	})
	for c := 0; c < clients; c++ {
		key := uint64(c) << 32
		var onAck func()
		issue := func() { d.Put(key, onAck) }
		onAck = func() {
			if s.Now() < deadline {
				key++
				issue()
				return
			}
			active--
			if active == 0 {
				loadRunning = false
			}
		}
		issue()
	}
	if d.p.Adaptive {
		// Seed the rate baseline at load start so the first sample
		// measures this load's first window, then tick until the load
		// drains. Stale ticks from a previous load are dead: their
		// captured flag is false.
		for i, n := range d.nodes {
			d.lastUnits[i] = n.UnitsDone()
		}
		var tick func()
		tick = func() {
			if !loadRunning {
				return
			}
			d.sample()
			if loadRunning {
				s.After(d.p.SampleEvery, tick)
			}
		}
		s.After(d.p.SampleEvery, tick)
	}
	d.ss.Run()
	d.ss.SetBarrier(nil)
	if active != 0 {
		panic(fmt.Sprintf("cluster: DHT load stalled with %d clients blocked (is a replica permanently at speed 0?)", active))
	}
	return d.puts - start
}

// Settle drains all outstanding node work (any still-armed GC schedule
// must be cancelled first, or the drain never finishes) and, in adaptive
// mode, takes one detector sample so flags reflect the drained state.
func (d *DHT) Settle() {
	d.ss.Run()
	if d.p.Adaptive {
		d.sample()
	}
}

// StartGC injects periodic garbage-collection pauses on node i: every
// period of virtual time the node stalls completely for pause, matching
// the paper's Section 2 observation of a GC-ing brick stalling
// synchronous replication. Returns a cancel func that restores full
// speed and disarms the schedule.
func (d *DHT) StartGC(i int, period, pause sim.Duration) func() {
	if period <= 0 || pause <= 0 {
		panic("cluster: StartGC needs positive period and pause")
	}
	n := d.nodes[i]
	cancelled := false
	var stall func()
	stall = func() {
		if cancelled {
			return
		}
		n.SetSpeed(0)
		n.gcGen++
		gen := n.gcGen
		d.sim.After(pause, func() {
			if !cancelled && n.gcGen == gen {
				n.SetSpeed(1)
			}
		})
		d.sim.After(period, stall)
	}
	d.sim.After(period, stall)
	return func() {
		if cancelled {
			return
		}
		cancelled = true
		n.SetSpeed(1)
	}
}
