// Package workload provides the drivers and generators for the
// experiment suite: the CM-5-style all-to-all transpose over a simulated
// switch, task-set generators for the distributed-sort experiments, and
// an open-loop request source feeding the availability meter.
package workload

import (
	"fmt"
	"math"

	"failstutter/internal/device"
	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// Transpose drives an all-to-all personalized exchange on a switch, the
// communication pattern of Brewer & Kuszmaul's CM-5 study: in round k,
// node i sends its block to node (i+k) mod N, a schedule that is
// contention-free when every receiver keeps up. It returns the virtual
// time from start until every message has drained. Completion is detected
// at the coordinator's barrier — the single-threaded point with a
// consistent view of every receiver — by watching total delivered bytes,
// and the finish instant is the latest drain completion across ports,
// which is an event time and therefore identical at every shard count.
// The caller owns fault injection and must not have other traffic running;
// Transpose owns the coordinator's barrier hook for its duration.
func Transpose(ss *sim.ShardedSimulator, sw *device.Switch, msgBytes float64) sim.Duration {
	n := sw.Params().Ports
	start := ss.Now()
	total := float64(n*(n-1)) * msgBytes
	done := false
	var finish sim.Time
	ss.SetBarrier(func(h sim.Time) {
		if !done && sw.TotalDelivered() >= total {
			done = true
			finish = sw.LastDeliveredAt()
		}
	})
	for i := 0; i < n; i++ {
		var msgs []device.Message
		for k := 1; k < n; k++ {
			msgs = append(msgs, device.Message{Dst: (i + k) % n, Size: msgBytes})
		}
		sw.Sender(i).Enqueue(msgs, nil)
	}
	ss.Run()
	ss.SetBarrier(nil)
	if !done {
		panic(fmt.Sprintf("workload: transpose delivered %v of %v bytes", sw.TotalDelivered(), total))
	}
	return finish - start
}

// TransposeBandwidth runs Transpose and returns aggregate delivered
// bandwidth in bytes/second.
func TransposeBandwidth(ss *sim.ShardedSimulator, sw *device.Switch, msgBytes float64) float64 {
	n := sw.Params().Ports
	elapsed := Transpose(ss, sw, msgBytes)
	if elapsed <= 0 {
		return math.Inf(1)
	}
	return float64(n*(n-1)) * msgBytes / elapsed
}

// SortUnits returns the abstract work units for sorting n records —
// proportional to n log2 n, normalized so that scale records cost scale
// units. It shapes the distributed-sort task sets.
func SortUnits(n, scale int) int {
	if n <= 1 {
		return 1
	}
	raw := float64(n) * math.Log2(float64(n))
	norm := float64(scale) * math.Log2(float64(scale))
	u := int(math.Round(raw / norm * float64(scale)))
	if u < 1 {
		u = 1
	}
	return u
}

// OpenLoopParams configures an open-loop request source: requests of the
// given size arrive at fixed spacing regardless of completions (offered
// load, in Gray & Reuter's sense) and are recorded against an
// availability threshold.
type OpenLoopParams struct {
	// Interval is the arrival spacing in seconds.
	Interval sim.Duration
	// RequestSize is the per-request work in station units.
	RequestSize float64
	// Count is the number of requests to offer.
	Count int
	// Threshold is the acceptable response time.
	Threshold sim.Duration
}

// OpenLoop drives a station with an open-loop arrival stream and returns
// the availability meter after the caller runs the simulation. Requests
// lost to an absolute failure stay unaccounted as completions and
// therefore count against availability — exactly the metric's intent.
func OpenLoop(s *sim.Simulator, st *sim.Station, p OpenLoopParams) *trace.AvailabilityMeter {
	if p.Interval <= 0 || p.RequestSize <= 0 || p.Count < 1 || p.Threshold <= 0 {
		panic(fmt.Sprintf("workload: invalid open-loop params %+v", p))
	}
	meter := trace.NewAvailabilityMeter(p.Threshold)
	for i := 0; i < p.Count; i++ {
		at := sim.Time(i) * p.Interval
		s.At(at, func() {
			meter.Offered()
			st.SubmitFunc(p.RequestSize, func(r *sim.Request) {
				meter.Completed(r.Latency())
			})
		})
	}
	return meter
}
