package workload

import (
	"math"
	"testing"

	"failstutter/internal/device"
	"failstutter/internal/sim"
)

// wire is the test fabrics' one-way wire latency, and with it their
// coordinators' lookahead.
const wire = 1e-3

func newSwitch(ss *sim.ShardedSimulator, ports int, drain float64) *device.Switch {
	return device.NewSwitch(ss, device.SwitchParams{
		Ports:       ports,
		LinkRate:    1000,
		DrainRate:   drain,
		BufferBytes: 100,
		WireLatency: wire,
	})
}

func TestTransposeCompletesAndTimes(t *testing.T) {
	var first sim.Duration
	for _, shards := range []int{1, 2, 3} {
		ss := sim.NewSharded(shards, wire)
		sw := newSwitch(ss, 4, 1000)
		elapsed := Transpose(ss, sw, 50)
		if elapsed <= 0 {
			t.Fatalf("elapsed = %v", elapsed)
		}
		// 4 nodes x 3 messages x 50 bytes = 600 bytes; links and drains
		// at 1000 B/s with 4-way parallelism: roughly 3 rounds x 0.1 s.
		if elapsed > 1 {
			t.Fatalf("healthy transpose took %v, far beyond nominal", elapsed)
		}
		if got := sw.TotalDelivered(); got != 600 {
			t.Fatalf("delivered %v bytes, want 600", got)
		}
		// Completion is an event time, so it is identical however the
		// ports are spread across shards.
		if shards == 1 {
			first = elapsed
		} else if elapsed != first {
			t.Fatalf("%d shards: transpose took %v, 1 shard %v", shards, elapsed, first)
		}
	}
}

func TestTransposeSlowReceiverCollapses(t *testing.T) {
	// The CM-5 observation: one receiver at a fraction of link rate drags
	// the whole all-to-all down by roughly the messages-per-receiver
	// factor.
	healthyS := sim.NewSharded(1, wire)
	healthy := TransposeBandwidth(healthyS, newSwitch(healthyS, 8, 1000), 50)

	slowS := sim.NewSharded(1, wire)
	sw := newSwitch(slowS, 8, 1000)
	sw.ReceiverComposite(3).Set("slow", 0.1)
	slowed := TransposeBandwidth(slowS, sw, 50)

	ratio := healthy / slowed
	if ratio < 2 {
		t.Fatalf("slow receiver only cost %.2fx; flow-control collapse absent", ratio)
	}
}

func TestTransposeBandwidthMonotoneInDrainRate(t *testing.T) {
	prev := math.Inf(1)
	for _, drain := range []float64{1000, 500, 250} {
		ss := sim.NewSharded(1, wire)
		bw := TransposeBandwidth(ss, newSwitch(ss, 4, drain), 50)
		if bw > prev+1e-9 {
			t.Fatalf("bandwidth not monotone in drain rate: %v then %v", prev, bw)
		}
		prev = bw
	}
}

func TestSortUnitsShape(t *testing.T) {
	if SortUnits(0, 100) != 1 || SortUnits(1, 100) != 1 {
		t.Fatal("degenerate sort units wrong")
	}
	if SortUnits(100, 100) != 100 {
		t.Fatalf("self-scale = %d, want 100", SortUnits(100, 100))
	}
	// Superlinear: doubling records more than doubles units.
	if SortUnits(200, 100) <= 2*SortUnits(100, 100) {
		t.Fatalf("sort units not superlinear: %d vs %d", SortUnits(200, 100), SortUnits(100, 100))
	}
}

func TestOpenLoopAvailability(t *testing.T) {
	s := sim.New()
	st := sim.NewStation(s, "svc", 10)
	meter := OpenLoop(s, st, OpenLoopParams{
		Interval:    1,
		RequestSize: 5, // 0.5 s service, well within threshold
		Count:       20,
		Threshold:   1,
	})
	s.Run()
	if got := meter.Availability(); got != 1 {
		t.Fatalf("healthy availability = %v, want 1", got)
	}
}

func TestOpenLoopDegradedAvailability(t *testing.T) {
	s := sim.New()
	st := sim.NewStation(s, "svc", 10)
	meter := OpenLoop(s, st, OpenLoopParams{
		Interval: 1, RequestSize: 5, Count: 20, Threshold: 1,
	})
	// Halve the service rate for the middle of the run: queue builds,
	// latencies blow through the threshold.
	s.At(5, func() { st.SetMultiplier(0.25) })
	s.At(12, func() { st.SetMultiplier(1) })
	s.Run()
	got := meter.Availability()
	if got >= 0.9 || got <= 0.1 {
		t.Fatalf("degraded availability = %v, want meaningful partial loss", got)
	}
}

func TestOpenLoopFailureCountsAgainstAvailability(t *testing.T) {
	s := sim.New()
	st := sim.NewStation(s, "svc", 10)
	meter := OpenLoop(s, st, OpenLoopParams{
		Interval: 1, RequestSize: 5, Count: 10, Threshold: 1,
	})
	s.At(4.6, st.Fail)
	s.Run()
	// Requests at t=0..4 completed (service 0.5 s); everything later died
	// with the station.
	if got := meter.Availability(); got != 0.5 {
		t.Fatalf("availability after failure = %v, want 0.5", got)
	}
}

func TestOpenLoopInvalidParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params did not panic")
		}
	}()
	OpenLoop(sim.New(), sim.NewStation(sim.New(), "x", 1), OpenLoopParams{})
}
