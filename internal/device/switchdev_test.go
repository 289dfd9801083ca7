package device

import (
	"math"
	"testing"

	"failstutter/internal/sim"
)

// testWire is the test fabrics' one-way wire latency, and with it their
// coordinators' lookahead.
const testWire = 1e-3

// newTestSharded builds a 1-shard coordinator for the switch tests: their
// OnDelivered closures share test state, which a multi-shard run would
// touch from several shard goroutines.
func newTestSharded() *sim.ShardedSimulator { return sim.NewSharded(1, testWire) }

func testSwitch(ss *sim.ShardedSimulator, ports int) *Switch {
	return NewSwitch(ss, SwitchParams{
		Ports:       ports,
		LinkRate:    100, // bytes/s
		DrainRate:   100,
		BufferBytes: 50,
		WireLatency: testWire,
	})
}

func TestLinkDelivery(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "l0", 100, 0.5)
	var lat float64
	l.Send(200, func(d float64) { lat = d })
	s.Run()
	// 200 bytes at 100 B/s + 0.5 s propagation = 2.5 s.
	if math.Abs(lat-2.5) > 1e-9 {
		t.Fatalf("latency = %v, want 2.5", lat)
	}
	if l.BytesDelivered() != 200 || l.Delivered() != 1 {
		t.Fatalf("delivered = %v/%d", l.BytesDelivered(), l.Delivered())
	}
}

func TestSwitchSimpleDelivery(t *testing.T) {
	ss := newTestSharded()
	sw := testSwitch(ss, 2)
	delivered := false
	sw.Sender(0).Enqueue([]Message{{Dst: 1, Size: 10, OnDelivered: func() { delivered = true }}}, nil)
	ss.Run()
	if !delivered {
		t.Fatal("message not delivered")
	}
	if sw.DeliveredBytes(1) != 10 {
		t.Fatalf("delivered bytes = %v", sw.DeliveredBytes(1))
	}
	if sw.Sender(0).Sent() != 1 {
		t.Fatalf("sent = %d", sw.Sender(0).Sent())
	}
}

func TestSwitchInOrderPerSender(t *testing.T) {
	ss := newTestSharded()
	sw := testSwitch(ss, 2)
	var order []int
	msgs := make([]Message, 5)
	for i := range msgs {
		i := i
		msgs[i] = Message{Dst: 1, Size: 10, OnDelivered: func() { order = append(order, i) }}
	}
	sw.Sender(0).Enqueue(msgs, nil)
	ss.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order %v not FIFO", order)
		}
	}
}

func TestSwitchOnIdleFires(t *testing.T) {
	ss := newTestSharded()
	sw := testSwitch(ss, 2)
	idle := false
	sw.Sender(0).Enqueue([]Message{{Dst: 1, Size: 10}, {Dst: 1, Size: 10}}, func() { idle = true })
	ss.Run()
	if !idle {
		t.Fatal("onIdle did not fire")
	}
	if sw.Sender(0).Backlog() != 0 {
		t.Fatal("backlog not drained")
	}
}

func TestSwitchHOLBlockingOnSlowReceiver(t *testing.T) {
	// Port 1's receiver is 100x slower. Sender 0 sends to port 1 first,
	// then to port 2; the second message is head-of-line blocked even
	// though port 2 is idle.
	ss := newTestSharded()
	sw := testSwitch(ss, 3)
	sw.ReceiverComposite(1).Set("slow", 0.01)

	var fastDelivered sim.Time
	// Fill port 1's buffer (50 bytes) plus one more to force blocking.
	msgs := []Message{
		{Dst: 1, Size: 40},
		{Dst: 1, Size: 40}, // must wait for buffer space (40+40 > 50)
		{Dst: 2, Size: 10, OnDelivered: func() { fastDelivered = ss.Shard(0).Now() }},
	}
	sw.Sender(0).Enqueue(msgs, nil)
	ss.Run()
	// Without blocking, the 10-byte message to the idle port would arrive
	// in well under a second. With HOL blocking it waits for the slow
	// receiver to drain 40 bytes at 1 B/s => tens of seconds.
	if fastDelivered < 10 {
		t.Fatalf("fast-port message arrived at %v; HOL blocking absent", fastDelivered)
	}
}

func TestSwitchWeightedUnfairness(t *testing.T) {
	// Two senders compete for one congested receiver; the favoured route
	// should complete far more traffic by a fixed horizon.
	ss := newTestSharded()
	sw := NewSwitch(ss, SwitchParams{Ports: 3, LinkRate: 1000, DrainRate: 10, BufferBytes: 20, WireLatency: testWire})
	sw.Sender(0).SetWeight(10)
	sw.Sender(1).SetWeight(1)
	mk := func(n int) []Message {
		ms := make([]Message, n)
		for i := range ms {
			ms[i] = Message{Dst: 2, Size: 10}
		}
		return ms
	}
	sw.Sender(0).Enqueue(mk(100), nil)
	sw.Sender(1).Enqueue(mk(100), nil)
	ss.RunUntil(100) // receiver drains ~100 bytes = ~10 messages total
	s0, s1 := sw.Sender(0).Sent(), sw.Sender(1).Sent()
	if s0 <= s1*2 {
		t.Fatalf("favoured sender %d vs disfavoured %d: unfairness absent", s0, s1)
	}
}

func TestSwitchFairWithEqualWeights(t *testing.T) {
	ss := newTestSharded()
	sw := NewSwitch(ss, SwitchParams{Ports: 3, LinkRate: 1000, DrainRate: 10, BufferBytes: 20, WireLatency: testWire})
	mk := func(n int) []Message {
		ms := make([]Message, n)
		for i := range ms {
			ms[i] = Message{Dst: 2, Size: 10}
		}
		return ms
	}
	sw.Sender(0).Enqueue(mk(50), nil)
	sw.Sender(1).Enqueue(mk(50), nil)
	ss.RunUntil(200)
	s0, s1 := float64(sw.Sender(0).Sent()), float64(sw.Sender(1).Sent())
	if math.Abs(s0-s1) > math.Max(2, 0.2*(s0+s1)/2) {
		t.Fatalf("equal-weight senders diverged: %v vs %v", s0, s1)
	}
}

func TestSwitchFreeze(t *testing.T) {
	ss := newTestSharded()
	sw := testSwitch(ss, 2)
	var done sim.Time
	sw.Sender(0).Enqueue([]Message{{Dst: 1, Size: 50, OnDelivered: func() { done = ss.Shard(0).Now() }}}, nil)
	// Without freeze: 0.5 s link + 0.5 s drain + three 1 ms wire
	// crossings ~ 1 s. Freeze 2 s in the middle.
	sw.FreezeAt(0.25, 2)
	ss.Run()
	if done < 2.9 {
		t.Fatalf("delivery at %v; freeze did not stall traffic", done)
	}
}

func TestSwitchOversizeMessagePanics(t *testing.T) {
	ss := newTestSharded()
	sw := testSwitch(ss, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize message did not panic")
		}
	}()
	sw.Sender(0).Enqueue([]Message{{Dst: 1, Size: 1000}}, nil)
	ss.Run()
}

func TestSwitchInvalidDestPanics(t *testing.T) {
	ss := newTestSharded()
	sw := testSwitch(ss, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid destination did not panic")
		}
	}()
	sw.Sender(0).Enqueue([]Message{{Dst: 7, Size: 1}}, nil)
}

func TestSwitchConservation(t *testing.T) {
	// All enqueued bytes are eventually delivered, once, regardless of
	// contention — and the fabric's outcome is identical however its port
	// groups are spread across shards.
	var lastAt sim.Time
	for _, shards := range []int{1, 2, 3} {
		ss := sim.NewSharded(shards, testWire)
		sw := NewSwitch(ss, SwitchParams{Ports: 4, LinkRate: 500, DrainRate: 50, BufferBytes: 30, WireLatency: testWire})
		total := 0.0
		for i := 0; i < 4; i++ {
			var msgs []Message
			for j := 0; j < 20; j++ {
				dst := (i + 1 + j) % 4
				if dst == i {
					dst = (dst + 1) % 4
				}
				msgs = append(msgs, Message{Dst: dst, Size: 10})
				total += 10
			}
			sw.Sender(i).Enqueue(msgs, nil)
		}
		ss.Run()
		if math.Abs(sw.TotalDelivered()-total) > 1e-9 {
			t.Fatalf("%d shards: delivered %v of %v bytes", shards, sw.TotalDelivered(), total)
		}
		if shards > 1 && sw.LastDeliveredAt() != lastAt {
			t.Fatalf("%d shards: drained at %v, 1 shard at %v", shards, sw.LastDeliveredAt(), lastAt)
		}
		lastAt = sw.LastDeliveredAt()
	}
}

func TestSwitchRequiresWireLatency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero wire latency accepted")
		}
	}()
	NewSwitch(newTestSharded(), SwitchParams{Ports: 2, LinkRate: 100, DrainRate: 100, BufferBytes: 50})
}
