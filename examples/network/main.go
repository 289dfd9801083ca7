// Network: flow-control collapse, detection, and River-style shedding.
//
// Part 1 reproduces the CM-5 observation on a simulated crossbar: an
// all-to-all transpose among eight nodes, with one receiver draining at a
// third of link rate. Head-of-line blocking on the bounded output buffers
// spreads that one deficit to every sender — aggregate bandwidth drops
// ~3x. A peer-relative detector watching per-port delivery counters
// identifies the culprit without any prior specification.
//
// Part 2 shows the fail-stutter response at the application layer: the
// same records streamed through a River distributed queue reach the
// available bandwidth because back-pressure routes work away from the
// slow consumer instead of waiting on it.
//
// Run with: go run ./examples/network
package main

import (
	"fmt"

	"failstutter"
	"failstutter/internal/river"
	"failstutter/internal/workload"
)

func transposeDemo(slow bool) float64 {
	// The wire latency is the fabric's minimum cross-port delay and so
	// the kernel's lookahead.
	const wire = 1e-4
	ss := failstutter.NewShardedSimulator(1, wire)
	sw := failstutter.NewSwitch(ss, failstutter.SwitchParams{
		Ports:       8,
		LinkRate:    1e6,
		DrainRate:   1e6,
		BufferBytes: 512 * 1024,
		WireLatency: wire,
	})
	if slow {
		sw.ReceiverComposite(3).Set("slow", 0.33)
	}

	// Watch each receiver's delivered bytes with a peer-relative detector:
	// no specs needed, divergence is the signal. Verdicts are evaluated
	// mid-flight, while the transfer is actually running. The detector
	// reads every port's counter, so it ticks on the one shard all ports
	// share.
	s := ss.Shard(0)
	peers := failstutter.NewPeerSet(failstutter.PeerConfig{
		WindowSamples: 4, Threshold: 0.6, MinPeers: 4,
	})
	// Head-of-line blocking couples every port's rate to the stutterer's,
	// so healthy ports occasionally look slow too — the persistence of a
	// flag, not its existence, identifies the real culprit.
	flagCounts := make([]int, 8)
	last := make([]float64, 8)
	var tick func()
	tick = func() {
		for port := 0; port < 8; port++ {
			cur := sw.DeliveredBytes(port)
			peers.Observe(fmt.Sprintf("port-%d", port), s.Now(), cur-last[port])
			last[port] = cur
		}
		for port := 0; port < 8; port++ {
			if peers.Verdict(fmt.Sprintf("port-%d", port), s.Now()) == failstutter.PerfFaulty {
				flagCounts[port]++
			}
		}
		if s.Now() < 4 {
			s.After(0.1, tick)
		}
	}
	s.After(0.1, tick)

	bw := workload.TransposeBandwidth(ss, sw, 256*1024)
	if slow {
		culprit, best := -1, 0
		for port, n := range flagCounts {
			if n > best {
				culprit, best = port, n
			}
		}
		fmt.Printf("  peer-relative detector: port-%d flagged in %d samples (most of any port)\n",
			culprit, best)
	}
	return bw
}

func main() {
	fmt.Println("all-to-all transpose, 8 nodes, bounded switch buffers:")
	healthy := transposeDemo(false)
	fmt.Printf("  healthy aggregate bandwidth: %.1f MB/s\n", healthy/1e6)
	slowed := transposeDemo(true)
	fmt.Printf("  with one receiver at 33%%:    %.1f MB/s  (%.1fx collapse)\n\n",
		slowed/1e6, healthy/slowed)

	fmt.Println("same imbalance at the application layer, via a River distributed queue:")
	for _, policy := range []river.Policy{river.RoundRobin, river.CreditBased} {
		s := failstutter.NewSimulator()
		dq := river.NewDQ(s, river.DQParams{
			Consumers: 4, ConsumerRate: 100, QueueCap: 4,
			Policy: policy, RNG: failstutter.NewRNG(1),
		})
		dq.ConsumerComposite(0).Set("slow", 0.33)
		var makespan float64
		dq.Produce(4000, func(m float64) { makespan = m; s.Stop() })
		s.Run()
		fmt.Printf("  %-13s %7.1f s for 4000 records (available-bandwidth ideal %.1f s)\n",
			policy, makespan, 4000/(3.33*100))
	}
	fmt.Println("\nthe static design waits on the stutterer; back-pressure simply flows around it")
}
