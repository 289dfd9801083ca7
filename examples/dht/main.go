// DHT: a replicated hash table riding out garbage-collection stutter.
//
// Four storage nodes hold two replicas of every key. Node 0 suffers
// periodic garbage-collection pauses — Gribble et al.'s observation that
// "untimely garbage collection causes one node to fall behind its mirror
// ... one machine over-saturates and thus is the bottleneck".
//
// Three configurations run the same closed-loop put workload, each on its
// own 1-shard virtual-time kernel (500 virtual milliseconds of load,
// deterministic to the last put):
//
//	baseline    no GC, synchronous replication
//	fail-stop   GC + synchronous replication: throughput collapses
//	fail-stutter GC + adaptive acks: the peer-relative detector flags the
//	            stutterer and puts are acknowledged by the healthy
//	            replica, with delivery to the flagged one deferred
//	            (hinted handoff, counted as redundancy debt)
//
// Run with: go run ./examples/dht
package main

import (
	"fmt"

	"failstutter"
)

func run(gc, adaptive bool) (puts int64, hints int64) {
	const opQuantum = 50e-6 // 50 virtual microseconds per operation
	d := failstutter.NewDHT(failstutter.NewShardedSimulator(1, opQuantum), failstutter.DHTParams{
		Nodes:       4,
		Replication: 2,
		OpQuantum:   opQuantum,
		Adaptive:    adaptive,
		SampleEvery: 1e-3,
	})
	if gc {
		cancel := d.StartGC(0, 40e-3, 35e-3)
		defer cancel()
	}
	puts = d.RunLoad(8, 500e-3)
	return puts, d.Hints()
}

func main() {
	fmt.Println("replicated DHT: 4 nodes, 2 replicas per key, 8 closed-loop clients, 500 virtual ms")
	base, _ := run(false, false)
	fmt.Printf("  %-34s %6d puts  (1.00x)\n", "baseline (no GC, synchronous)", base)

	sync, _ := run(true, false)
	fmt.Printf("  %-34s %6d puts  (%.2fx)   <- one GC-ing node bottlenecks everything\n",
		"GC on node 0, synchronous", sync, float64(sync)/float64(base))

	adaptive, hints := run(true, true)
	fmt.Printf("  %-34s %6d puts  (%.2fx)   with %d hinted handoffs outstanding\n",
		"GC on node 0, adaptive acks", adaptive, float64(adaptive)/float64(base), hints)

	fmt.Println("\nthe adaptive design trades momentary redundancy (hints) for availability,")
	fmt.Println("exactly the fail-stutter bargain: use the performance-faulty component for")
	fmt.Println("what it can still do, without letting it set the pace of the whole system")
}
