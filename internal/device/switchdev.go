package device

import (
	"fmt"

	"failstutter/internal/faults"
	"failstutter/internal/sim"
)

// SwitchParams configures a simulated crossbar switch in the style of the
// Myrinet and CM-5 fabrics the paper surveys.
type SwitchParams struct {
	// Ports is the number of attached nodes (each both sender and
	// receiver).
	Ports int
	// LinkRate is each sender's injection bandwidth, bytes/s.
	LinkRate float64
	// DrainRate is each receiver's nominal drain bandwidth, bytes/s.
	DrainRate float64
	// BufferBytes is the buffering available per output port. When a
	// destination's buffer is full, senders block head-of-line — the flow
	// control mechanism behind the CM-5 transpose collapse.
	BufferBytes float64
	// WireLatency is the one-way propagation delay of every hop between a
	// node and the crossbar: reserve requests, buffer grants and message
	// heads each pay one wire crossing. It must be positive: the wire is
	// the fabric's minimum cross-port delay and therefore the
	// conservative lookahead that lets ports run on different shards.
	WireLatency sim.Duration
}

// Switch is a crossbar connecting Ports nodes. Each output port has a
// bounded buffer drained at the receiver's rate; senders reserve buffer
// space before transmitting and block (head-of-line) when the destination
// is full. Contended buffer space is granted by route weight, modelling
// the Myrinet unfairness observation; equal weights yield FIFO fairness.
//
// The port groups (sender i + output port i) are spread across the shards
// of a ShardedSimulator by identity hash; every cross-port hop travels one
// WireLatency over the cross-shard data path, and same-time arrivals at an
// output port are ordered by a placement-invariant mailbox key so results
// are byte-identical at any shard count.
type Switch struct {
	ss     *sim.ShardedSimulator
	params SwitchParams
	outs   []*outPort
	sends  []*Sender
	// shardOf maps port -> shard.
	shardOf []int
}

type outPort struct {
	kernel   *sim.Simulator
	station  *sim.Station
	comp     *faults.Composite
	mb       *sim.Mailbox // orders same-time arrivals
	origin   string
	buffered float64
	limit    float64
	waiters  []*bufWaiter
	// delivered tracks bytes fully drained by the receiver;
	// lastDeliveredAt is the instant of the most recent drain completion.
	delivered       float64
	lastDeliveredAt sim.Time
}

// bufWaiter is one blocked reservation. Admission order is (weight desc,
// request-arrival time asc, key asc); key embeds (sender port, sender
// event seq), so the order is placement-invariant — it never depends on
// which shard a contending sender happens to run on.
type bufWaiter struct {
	size   float64
	weight float64
	at     sim.Time
	key    uint64
	grant  func()
}

// NewSwitch builds the switch and its per-node senders across the shards
// of ss: port group i (sender i and output port i) lives on shard
// ShardFor("port-i"). The wire latency must be at least the coordinator's
// lookahead — it is the delay every cross-port interaction pays, which is
// exactly what makes the parallel windows safe.
//
// To trace the switch, install telemetry on ss (SetTelemetry) before
// calling NewSwitch: port group i's stations — the sender link
// ("link-<i>" track) and the output-port drain ("out-<i>" track) — then
// record into shard ShardFor("port-i")'s collector.
func NewSwitch(ss *sim.ShardedSimulator, p SwitchParams) *Switch {
	if p.Ports < 2 || p.LinkRate <= 0 || p.DrainRate <= 0 || p.BufferBytes <= 0 || !(p.WireLatency > 0) {
		panic(fmt.Sprintf("device: invalid switch params %+v (WireLatency must be positive)", p))
	}
	if ss.Lookahead() > p.WireLatency {
		panic(fmt.Sprintf("device: lookahead %v exceeds wire latency %v — cross-port sends would violate the bound",
			ss.Lookahead(), p.WireLatency))
	}
	sw := &Switch{ss: ss, params: p, shardOf: make([]int, p.Ports)}
	for i := 0; i < p.Ports; i++ {
		sw.shardOf[i] = ss.ShardFor(fmt.Sprintf("port-%d", i))
	}
	for i := 0; i < p.Ports; i++ {
		sw.outs = append(sw.outs, newOutPort(ss.Shard(sw.shardOf[i]), i, p))
	}
	for i := 0; i < p.Ports; i++ {
		sw.sends = append(sw.sends, newSender(sw, ss.Shard(sw.shardOf[i]), i, p))
	}
	// Attach port group by port group: the track order (out-i, then
	// link-i) is part of the exported trace.
	for i := range sw.outs {
		t := ss.ShardTracer(sw.shardOf[i])
		sw.outs[i].station.SetTracer(t)
		sw.sends[i].link.SetTracer(t)
	}
	return sw
}

func newOutPort(s *sim.Simulator, i int, p SwitchParams) *outPort {
	st := sim.NewStation(s, fmt.Sprintf("out-%d", i), p.DrainRate)
	return &outPort{
		kernel:  s,
		station: st,
		mb:      sim.NewMailbox(s),
		comp:    faults.NewComposite(st),
		origin:  fmt.Sprintf("out-%d", i),
		limit:   p.BufferBytes,
	}
}

func newSender(sw *Switch, s *sim.Simulator, i int, p SwitchParams) *Sender {
	link := sim.NewStation(s, fmt.Sprintf("link-%d", i), p.LinkRate)
	return &Sender{
		sw:     sw,
		id:     i,
		kernel: s,
		link:   link,
		comp:   faults.NewComposite(link),
		origin: fmt.Sprintf("sender-%d", i),
		weight: 1,
	}
}

// Params returns the construction parameters.
func (sw *Switch) Params() SwitchParams { return sw.params }

// Sender returns node i's sender.
func (sw *Switch) Sender(i int) *Sender { return sw.sends[i] }

// ReceiverComposite exposes the fault target for a receiver's drain rate;
// injectors slow or stall the receiver through it.
func (sw *Switch) ReceiverComposite(port int) *faults.Composite {
	return sw.outs[port].comp
}

// DeliveredBytes returns the bytes fully drained at the given receiver.
func (sw *Switch) DeliveredBytes(port int) float64 { return sw.outs[port].delivered }

// TotalDelivered returns bytes drained across all receivers.
func (sw *Switch) TotalDelivered() float64 {
	t := 0.0
	for _, o := range sw.outs {
		t += o.delivered
	}
	return t
}

// LastDeliveredAt returns the latest drain-completion instant across all
// receivers — the completion time of a fully drained workload. Safe to
// read at a barrier.
func (sw *Switch) LastDeliveredAt() sim.Time {
	t := sim.Time(0)
	for _, o := range sw.outs {
		if o.lastDeliveredAt > t {
			t = o.lastDeliveredAt
		}
	}
	return t
}

// FreezeAt schedules a whole-switch freeze: for the duration, no port
// drains and no link transmits. This reproduces the Myrinet
// deadlock-recovery behaviour the paper describes — "halting all switch
// traffic for two seconds". Each port group freezes and thaws via events
// on its own shard, at the same instants on every shard count.
func (sw *Switch) FreezeAt(at sim.Time, duration sim.Duration) {
	const slot = "switch-freeze"
	for i := range sw.outs {
		o, sd := sw.outs[i], sw.sends[i]
		o.kernel.At(at, func() {
			o.comp.Set(slot, 0)
			sd.comp.Set(slot, 0)
		})
		o.kernel.At(at+duration, func() {
			o.comp.Clear(slot)
			sd.comp.Clear(slot)
		})
	}
}

// wire sends fn across the fabric from srcPort's shard to dstPort's
// shard, one WireLatency ahead, attributed to origin in lookahead
// diagnostics.
func (sw *Switch) wire(srcPort, dstPort int, origin string, fn func()) {
	at := sw.sends[srcPort].kernel.Now() + sw.params.WireLatency
	sw.ss.Send(sw.shardOf[srcPort], sw.shardOf[dstPort], at, origin, fn)
}

// wireToOut is wire with mailbox ordering at the destination output port:
// same-time arrivals from different senders replay in (sender port,
// sender event) order regardless of the partition.
func (sw *Switch) wireToOut(srcPort, dstPort int, origin string, key uint64, fn func()) {
	o := sw.outs[dstPort]
	sw.wire(srcPort, dstPort, origin, func() { o.mb.Post(key, fn) })
}

// arriveReserve asks for buffer space at the output port, running on the
// port's shard when the request crosses the wire: it grants immediately if
// space is available, otherwise queues the request by weight.
func (o *outPort) arriveReserve(size, weight float64, key uint64, grant func()) {
	if size > o.limit {
		panic(fmt.Sprintf("device: message of %v bytes exceeds port buffer %v", size, o.limit))
	}
	if o.buffered+size <= o.limit && len(o.waiters) == 0 {
		o.buffered += size
		grant()
		return
	}
	o.waiters = append(o.waiters, &bufWaiter{
		size: size, weight: weight, at: o.kernel.Now(), key: key, grant: grant,
	})
}

// release returns drained bytes to the buffer pool and admits waiters,
// highest weight first, then earliest request, then lowest sender key.
func (sw *Switch) release(dst int, size float64) {
	o := sw.outs[dst]
	o.buffered -= size
	o.delivered += size
	o.lastDeliveredAt = o.kernel.Now()
	for len(o.waiters) > 0 {
		// Pick the best waiter by (weight desc, at asc, key asc).
		best := 0
		for i, w := range o.waiters[1:] {
			cand := w
			cur := o.waiters[best]
			if cand.weight > cur.weight ||
				(cand.weight == cur.weight && (cand.at < cur.at ||
					(cand.at == cur.at && cand.key < cur.key))) {
				best = i + 1
			}
		}
		w := o.waiters[best]
		if o.buffered+w.size > o.limit {
			return
		}
		o.waiters = append(o.waiters[:best], o.waiters[best+1:]...)
		o.buffered += w.size
		w.grant()
	}
}

// Message is one transfer from a sender to a destination port.
type Message struct {
	Dst  int
	Size float64
	// OnDelivered, if non-nil, fires when the receiver finishes draining
	// the message. It runs on the destination port's shard and must only
	// touch state owned by that shard; workloads that need global
	// completion detection read DeliveredBytes at a barrier instead.
	OnDelivered func()
}

// Sender transmits an ordered queue of messages from one node. It is
// strictly in-order: a full destination buffer blocks every message behind
// it (head-of-line blocking).
type Sender struct {
	sw     *Switch
	id     int
	kernel *sim.Simulator
	link   *sim.Station
	comp   *faults.Composite
	origin string
	weight float64

	queue  []Message
	active bool
	onIdle func()
	// evSeq numbers this sender's wire events; with the port id it forms
	// the placement-invariant mailbox/waiter key.
	evSeq uint64

	sent      uint64
	bytesSent float64
}

// ID returns the sender's port number.
func (sd *Sender) ID() int { return sd.id }

// Composite exposes the sender link's fault target.
func (sd *Sender) Composite() *faults.Composite { return sd.comp }

// SetWeight sets the route priority used when competing for contended
// buffer space. The default is 1; higher wins.
func (sd *Sender) SetWeight(w float64) {
	if w <= 0 {
		panic("device: sender weight must be positive")
	}
	sd.weight = w
}

// Sent returns the number of messages fully transmitted onto the fabric.
func (sd *Sender) Sent() uint64 { return sd.sent }

// BytesSent returns bytes fully transmitted onto the fabric.
func (sd *Sender) BytesSent() float64 { return sd.bytesSent }

// Backlog returns the number of unsent queued messages.
func (sd *Sender) Backlog() int { return len(sd.queue) }

// nextKey mints the sender's next placement-invariant event key.
func (sd *Sender) nextKey() uint64 {
	k := uint64(sd.id)<<32 | sd.evSeq
	sd.evSeq++
	return k
}

// Enqueue appends messages to the send queue and starts transmission if
// idle. onIdle (optional, may be nil) replaces any previous idle callback
// and fires when the queue fully drains onto the fabric.
func (sd *Sender) Enqueue(msgs []Message, onIdle func()) {
	for _, m := range msgs {
		if m.Dst < 0 || m.Dst >= len(sd.sw.outs) {
			panic(fmt.Sprintf("device: message to invalid port %d", m.Dst))
		}
		if m.Size <= 0 {
			panic("device: message size must be positive")
		}
		if m.Size > sd.sw.params.BufferBytes {
			panic(fmt.Sprintf("device: message of %v bytes exceeds port buffer %v", m.Size, sd.sw.params.BufferBytes))
		}
	}
	sd.queue = append(sd.queue, msgs...)
	sd.onIdle = onIdle
	if !sd.active {
		sd.active = true
		sd.next()
	}
}

// next advances the in-order send loop.
func (sd *Sender) next() {
	if len(sd.queue) == 0 {
		sd.active = false
		if sd.onIdle != nil {
			cb := sd.onIdle
			sd.onIdle = nil
			cb()
		}
		return
	}
	m := sd.queue[0]
	sd.queue = sd.queue[1:]
	sd.transmit(m)
}

// transmit runs one message through the fabric: the reserve
// request crosses the wire to the output port's shard, the grant crosses
// back, the link serializes locally, and the message head crosses the
// wire again before draining at the receiver. Each crossing takes the
// batched lane path and lands in the port mailbox, so contention is
// resolved in placement-invariant order.
func (sd *Sender) transmit(m Message) {
	sw := sd.sw
	o := sw.outs[m.Dst]
	// Both keys are minted here, on the sender's shard: the waiter key
	// crosses the wire inside the closure rather than being derived on
	// the destination shard.
	waiterKey := sd.nextKey()
	sw.wireToOut(sd.id, m.Dst, sd.origin, sd.nextKey(), func() {
		o.arriveReserve(m.Size, sd.weight, waiterKey, func() {
			// Granted, on the output port's shard: notify the sender.
			sw.wire(m.Dst, sd.id, o.origin, func() {
				sd.link.SubmitFunc(m.Size, func(*sim.Request) {
					sd.sent++
					sd.bytesSent += m.Size
					sw.wireToOut(sd.id, m.Dst, sd.origin, sd.nextKey(), func() {
						o.station.SubmitFunc(m.Size, func(*sim.Request) {
							sw.release(m.Dst, m.Size)
							if m.OnDelivered != nil {
								m.OnDelivered()
							}
						})
					})
					sd.next()
				})
			})
		})
	})
}
