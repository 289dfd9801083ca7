// Integration tests across the public API: each test wires several layers
// together the way a downstream user would — devices + faults + detection
// + adaptation — and checks the end-to-end behaviour the fail-stutter
// model promises.
package failstutter_test

import (
	"fmt"
	"testing"

	"failstutter"
	"failstutter/internal/faults"
)

// buildPairs constructs mirror pairs over flat disks at the given rates.
func buildPairs(s *failstutter.Simulator, rates []float64) []*failstutter.MirrorPair {
	pairs := make([]*failstutter.MirrorPair, len(rates))
	for i, r := range rates {
		p := failstutter.DiskParams{
			Name:           fmt.Sprintf("it-p%d-a", i),
			CapacityBlocks: 1 << 22,
			BlockBytes:     4096,
			Zones:          []failstutter.DiskZone{{CapacityFrac: 1, Bandwidth: r}},
			SeekTime:       0.002,
			AgingFactor:    1,
		}
		a, err := failstutter.NewDisk(s, p)
		if err != nil {
			panic(err)
		}
		p.Name = fmt.Sprintf("it-p%d-b", i)
		b, err := failstutter.NewDisk(s, p)
		if err != nil {
			panic(err)
		}
		pairs[i] = failstutter.NewMirrorPair(s, i, a, b)
	}
	return pairs
}

func TestPublicAPIScenarioPipeline(t *testing.T) {
	// The paper's worked example through the facade only.
	s := failstutter.NewSimulator()
	a := failstutter.NewArray(s, buildPairs(s, []float64{1e6, 1e6, 1e6, 0.25e6}), 4096)
	res, err := failstutter.WriteAndMeasure(s, a, failstutter.AdaptivePull{Depth: 2}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	want := 3.25e6
	if res.Throughput < 0.9*want {
		t.Fatalf("adaptive throughput %v, want ~%v", res.Throughput, want)
	}
}

func TestPublicAPIDetectionLoop(t *testing.T) {
	// Disk stutters; controller detects and publishes; a subscriber sees
	// the transition — the full loop via the facade.
	s := failstutter.NewSimulator()
	disk, err := failstutter.NewDisk(s, failstutter.HawkParams("it-hawk"))
	if err != nil {
		t.Fatal(err)
	}
	var refill func(block int64)
	refill = func(block int64) {
		if block+256 > disk.Params().CapacityBlocks {
			block = 0
		}
		disk.Read(block, 256, func(float64) { refill(block + 256) })
	}
	refill(0)
	s.At(30, func() { disk.Composite().Set("fault", 0.3) })

	ctl := failstutter.NewController(s)
	ctl.Watch("it-hawk", disk.BytesCompleted, failstutter.AttachConfig{
		Interval: 1,
		Detector: failstutter.NewSpecDetector(failstutter.Spec{
			ExpectedRate: 5.5e6, Tolerance: 0.3, PromotionTimeout: 30,
		}),
		Policy: failstutter.NotifyPersistent,
	})
	var events []failstutter.RegistryEvent
	ctl.Registry().Subscribe(func(e failstutter.RegistryEvent) { events = append(events, e) })
	s.RunUntil(60)
	if len(events) != 1 {
		t.Fatalf("events = %d, want exactly the persistent transition", len(events))
	}
	if events[0].To != failstutter.PerfFaulty || events[0].At < 30 || events[0].At > 40 {
		t.Fatalf("unexpected event %+v", events[0])
	}
	if ctl.State("it-hawk") != failstutter.PerfFaulty {
		t.Fatalf("state = %v", ctl.State("it-hawk"))
	}
}

func TestPublicAPIPromotionToAbsolute(t *testing.T) {
	s := failstutter.NewSimulator()
	disk, err := failstutter.NewDisk(s, failstutter.HawkParams("it-dies"))
	if err != nil {
		t.Fatal(err)
	}
	var refill func(block int64)
	refill = func(block int64) {
		if block+256 > disk.Params().CapacityBlocks {
			block = 0
		}
		disk.Read(block, 256, func(float64) { refill(block + 256) })
	}
	refill(0)
	faults.CrashAt{At: 20}.Install(s, disk.Composite())

	ctl := failstutter.NewController(s)
	ctl.Watch("it-dies", disk.BytesCompleted, failstutter.AttachConfig{
		Interval: 1,
		Detector: failstutter.NewSpecDetector(failstutter.Spec{
			ExpectedRate: 5.5e6, Tolerance: 0.3, PromotionTimeout: 10,
		}),
	})
	s.RunUntil(60)
	if ctl.State("it-dies") != failstutter.AbsoluteFaulty {
		t.Fatalf("state = %v, want absolute after sustained silence", ctl.State("it-dies"))
	}
}

func TestPublicAPIClusterSchedulers(t *testing.T) {
	const quantum = 50e-6
	run := func(name string) failstutter.SchedulerReport {
		for _, sched := range failstutter.Schedulers() {
			if sched.Name() != name {
				continue
			}
			pool := failstutter.NewPool(failstutter.NewShardedSimulator(1, quantum), 4, quantum)
			pool.Workers()[0].SetSpeed(0.25)
			return sched.Run(pool, failstutter.UniformTasks(48, 60))
		}
		t.Fatalf("scheduler %q not in facade set", name)
		return failstutter.SchedulerReport{}
	}
	static, queue := run("static-partition"), run("work-queue")
	if queue.Makespan*2 > static.Makespan {
		t.Fatalf("work queue %v not clearly below static %v via facade",
			queue.Makespan, static.Makespan)
	}
	// The cluster plane runs on the virtual-time kernel: a repeated run is
	// bitwise identical, not merely statistically close.
	if again := run("work-queue"); again.String() != queue.String() || again.Makespan != queue.Makespan {
		t.Fatalf("work-queue report not reproducible:\n%v\n%v", queue, again)
	}
}

func TestPublicAPIRiverQueue(t *testing.T) {
	s := failstutter.NewSimulator()
	dq := failstutter.NewRiverQueue(s, failstutter.RiverQueueParams{
		Consumers: 4, ConsumerRate: 100, QueueCap: 4,
		Policy: failstutter.RiverCreditBased,
	})
	dq.ConsumerComposite(0).Set("slow", 0.1)
	var makespan float64
	dq.Produce(2000, func(m float64) { makespan = m; s.Stop() })
	s.Run()
	available := 2000.0 / (3.1 * 100)
	if makespan > 1.2*available {
		t.Fatalf("river queue makespan %v, available ideal %v", makespan, available)
	}
}

func TestPublicAPIExperimentsRegistry(t *testing.T) {
	// The exact roster is asserted by the experiments package's own
	// registry test; the facade just needs the full suite visible.
	all := failstutter.Experiments()
	if len(all) < 30 {
		t.Fatalf("experiments = %d, want the full suite", len(all))
	}
	e, err := failstutter.GetExperiment("E01")
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.Run(failstutter.ExperimentConfig{Seed: 1, Quick: true})
	if v := tbl.MustMetric("rel_error"); v > 0.05 {
		t.Fatalf("E01 via facade: rel error %v", v)
	}
}

func TestPublicAPIReconstruction(t *testing.T) {
	s := failstutter.NewSimulator()
	pairs := buildPairs(s, []float64{1e6, 1e6})
	a := failstutter.NewArray(s, pairs, 4096)
	spareParams := failstutter.DiskParams{
		Name: "it-spare", CapacityBlocks: 1 << 22, BlockBytes: 4096,
		Zones:       []failstutter.DiskZone{{CapacityFrac: 1, Bandwidth: 1e6}},
		SeekTime:    0.002,
		AgingFactor: 1,
	}
	spare, err := failstutter.NewDisk(s, spareParams)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := false
	failstutter.EnableReconstruction(a, failstutter.NewSparePool(spare), 128,
		func(failstutter.ReconEvent) { rebuilt = true })
	if _, err := failstutter.WriteAndMeasure(s, a, failstutter.StaticEqual{}, 500); err != nil {
		t.Fatal(err)
	}
	a.Pairs()[0].A.Fail()
	s.Run()
	if !rebuilt {
		t.Fatal("hot-spare rebuild did not complete via facade")
	}
}
