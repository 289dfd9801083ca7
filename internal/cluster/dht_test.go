package cluster

import (
	"testing"

	"failstutter/internal/sim"
)

// opQ is the test operation quantum: 50 virtual microseconds per op.
const opQ = sim.Duration(50e-6)

func TestDHTBasicPuts(t *testing.T) {
	ss := newSharded(1)
	d := NewDHT(ss, DHTParams{Nodes: 4, Replication: 2, OpQuantum: opQ})
	for i := 0; i < 100; i++ {
		d.Put(uint64(i), nil)
	}
	ss.Run()
	if d.Puts() != 100 {
		t.Fatalf("puts = %d", d.Puts())
	}
	if d.Hints() != 0 {
		t.Fatalf("sync mode produced %d hints", d.Hints())
	}
	// Every put lands Replication copies: total node work = 200 ops.
	var total float64
	for i := 0; i < 4; i++ {
		total += d.Node(i).UnitsDone()
	}
	if total != 200 {
		t.Fatalf("node ops = %v, want 200", total)
	}
}

func TestDHTPutAckOrdering(t *testing.T) {
	ss := newSharded(1)
	d := NewDHT(ss, DHTParams{Nodes: 4, Replication: 2, OpQuantum: opQ})
	acked := false
	d.Put(1, func() { acked = true })
	if acked {
		t.Fatal("ack fired before the simulator ran")
	}
	ss.Run()
	if !acked {
		t.Fatal("ack never fired")
	}
}

func TestDHTReplicaPlacementSpread(t *testing.T) {
	d := NewDHT(newSharded(1), DHTParams{Nodes: 8, Replication: 2, OpQuantum: opQ})
	counts := make([]int, 8)
	for k := uint64(0); k < 4000; k++ {
		for _, r := range d.replicas(k) {
			counts[r]++
		}
	}
	for i, c := range counts {
		// 4000 keys * 2 replicas / 8 nodes = 1000 each; allow wide noise.
		if c < 700 || c > 1300 {
			t.Fatalf("node %d holds %d replicas, want ~1000", i, c)
		}
	}
}

func TestDHTReplicasDistinct(t *testing.T) {
	d := NewDHT(newSharded(1), DHTParams{Nodes: 4, Replication: 2, OpQuantum: opQ})
	for k := uint64(0); k < 100; k++ {
		reps := d.replicas(k)
		if reps[0] == reps[1] {
			t.Fatalf("key %d replicas collide: %v", k, reps)
		}
	}
}

// Gribble's observation (E14): untimely GC on one node makes it the
// bottleneck of the whole replicated structure under synchronous
// replication.
func TestDHTGCCollapsesSyncThroughput(t *testing.T) {
	run := func(gc bool) int64 {
		return acrossShards(t, func(ss *sim.ShardedSimulator) int64 {
			d := NewDHT(ss, DHTParams{Nodes: 4, Replication: 2, OpQuantum: opQ})
			if gc {
				cancel := d.StartGC(0, 40e-3, 35e-3)
				defer cancel()
			}
			return d.RunLoad(8, 400e-3)
		})
	}
	healthy := run(false)
	gced := run(true)
	if gced*10 > healthy*8 {
		t.Fatalf("GC did not hurt sync throughput: healthy %d vs GC %d", healthy, gced)
	}
}

func TestDHTAdaptiveRidesOutGC(t *testing.T) {
	run := func(adaptive bool) (puts, hints int64) {
		r := acrossShards(t, func(ss *sim.ShardedSimulator) [2]int64 {
			d := NewDHT(ss, DHTParams{
				Nodes: 4, Replication: 2, OpQuantum: opQ,
				Adaptive: adaptive, SampleEvery: 1e-3,
			})
			cancel := d.StartGC(0, 40e-3, 35e-3)
			defer cancel()
			return [2]int64{d.RunLoad(8, 400e-3), d.Hints()}
		})
		return r[0], r[1]
	}
	syncPuts, _ := run(false)
	adPuts, adHints := run(true)
	if adPuts*100 < syncPuts*115 {
		t.Fatalf("adaptive %d puts not clearly better than sync %d under GC", adPuts, syncPuts)
	}
	if adHints == 0 {
		t.Fatal("adaptive mode recorded no hinted handoffs")
	}
}

func TestDHTFlagsClearAfterRecovery(t *testing.T) {
	d := NewDHT(newSharded(1), DHTParams{
		Nodes: 4, Replication: 2, OpQuantum: opQ,
		Adaptive: true, SampleEvery: 1e-3,
	})
	cancel := d.StartGC(0, 20e-3, 15e-3)
	d.RunLoad(8, 150e-3)
	if !d.Flagged(0) {
		t.Fatal("GC-ing node never flagged under load")
	}
	cancel()
	// Once the GC schedule is disarmed and the hinted backlog drains, the
	// flag must clear.
	d.Settle()
	if d.Flagged(0) {
		t.Fatal("node 0 still flagged after GC stopped and the backlog drained")
	}
}

// TestDHTDeterministic: the adaptive DHT under GC yields bitwise
// repeatable puts and hints, identical at every shard count.
func TestDHTDeterministic(t *testing.T) {
	run := func(ss *sim.ShardedSimulator) [2]int64 {
		d := NewDHT(ss, DHTParams{
			Nodes: 4, Replication: 2, OpQuantum: opQ,
			Adaptive: true, SampleEvery: 1e-3,
		})
		cancel := d.StartGC(0, 40e-3, 35e-3)
		defer cancel()
		puts := d.RunLoad(8, 300e-3)
		return [2]int64{puts, d.Hints()}
	}
	a, b := acrossShards(t, run), acrossShards(t, run)
	if a != b {
		t.Fatalf("DHT load not deterministic: %v vs %v puts/hints", a, b)
	}
}

func TestDHTValidation(t *testing.T) {
	bad := []DHTParams{
		{},
		{Nodes: 2, Replication: 3, OpQuantum: opQ},
		{Nodes: 2, Replication: 1},
	}
	for i, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad params %d accepted", i)
				}
			}()
			NewDHT(newSharded(1), p)
		}()
	}
}

func BenchmarkDHTLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDHT(newSharded(1), DHTParams{Nodes: 8, Replication: 2, OpQuantum: opQ})
		d.RunLoad(16, 100e-3)
	}
}
