package experiments

import (
	"fmt"

	"failstutter/internal/cluster"
	"failstutter/internal/sim"
	"failstutter/internal/workload"
)

// clusterQuantum is the virtual time one work unit (or one DHT operation)
// costs at node speed 1: 50 microseconds of virtual time.
const clusterQuantum = sim.Duration(50e-6)

// clusterLookahead is the sharded coordinator's window for the cluster
// plane, derived from the worker quantum — the minimum interval at which a
// worker's state can matter to anyone else. Cross-worker coordination
// happens at barriers (not via lookahead-bounded sends), so the value only
// sets the dispatch granularity: each completion's follow-up dispatch lands
// at the window horizon, at most one quantum after the completion.
const clusterLookahead = clusterQuantum

// shardedCluster builds the coordinator the cluster experiments run on,
// always at the configured shard count: traced runs install per-shard
// telemetry collectors whose deterministic merge keeps every artifact
// byte-identical at any count, so tracing no longer forces one shard.
func shardedCluster(cfg Config, tel *Telemetry) *sim.ShardedSimulator {
	ss := cfg.newSharded(cfg.ShardCount(), clusterLookahead)
	tel.attachSharded(ss)
	return ss
}

func init() {
	register(Experiment{
		ID:    "E14",
		Title: "DHT: garbage collection makes one node the bottleneck",
		PaperClaim: "untimely garbage collection causes one node to fall " +
			"behind its mirror in a replicated update; one machine " +
			"over-saturates and thus is the bottleneck (Gribble et al., " +
			"Section 2.2.1)",
		Run: runE14,
	})
	register(Experiment{
		ID:    "E15",
		Title: "Distributed sort: one loaded node halves throughput",
		PaperClaim: "a node with excess CPU load reduces global sorting " +
			"performance by a factor of two (NOW-Sort, Section 2.2.2)",
		Run: runE15,
	})
	register(Experiment{
		ID:    "E23",
		Title: "Slow-down failures: reissue and reconcile",
		PaperClaim: "run transactions correctly in the presence of slow-down " +
			"failures by issuing new processes to do the work elsewhere, " +
			"reconciling so as to avoid work replication (Shasha & Turek, " +
			"Section 4)",
		Run: runE23,
	})
	register(Experiment{
		ID:    "E29",
		Title: "Bulk-synchronous parallelism: every barrier pays the straggler",
		PaperClaim: "particularly vulnerable are systems that make static uses " +
			"of parallelism, usually assuming that all components perform " +
			"identically (Section 1; CM-5 parallel applications, Section 2.1.3)",
		Run: runE29,
	})
	register(Experiment{
		ID:    "E24",
		Title: "Scheduler comparison across fault scenarios",
		PaperClaim: "new adaptive algorithms, which can cope with this more " +
			"difficult class of failures, must be designed ... and different " +
			"approaches need to be evaluated (Section 5)",
		Run: runE24,
	})
}

// fmtVirt formats a virtual duration for table display.
func fmtVirt(d sim.Duration) string { return fmt.Sprintf("%.3fs", d) }

// clusterRunT runs one scheduler over one task set as a labeled,
// telemetry-attached sub-run: worker stations trace to tel.Tracer, the
// profiling sampler records occupancy, and a DetectAvoid scheduler logs
// its flag decisions to the audit trail. setup (may be nil) configures
// the pool — fault injection — before the job starts. With tel == nil
// this is exactly a bare scheduler run.
func clusterRunT(cfg Config, tel *Telemetry, name string, sched cluster.Scheduler, tasks []cluster.Task, setup func(*cluster.Pool)) cluster.Report {
	ss := shardedCluster(cfg, tel)
	p := cluster.NewPool(ss, 4, clusterQuantum)
	if tel != nil {
		run := tel.nextRun(name)
		p.SetTracer(tel.Tracer)
		tel.attachProfileSharded(ss, run)
		if da, ok := sched.(cluster.DetectAvoid); ok && tel.Audit != nil {
			da.Audit = tel.Audit
			sched = da
		}
	}
	if setup != nil {
		setup(p)
	}
	r := sched.Run(p, tasks)
	tel.endSharded(ss)
	cfg.observeBarrier(name, ss)
	return r
}

func runE14(cfg Config) *Table {
	dur := sim.Duration(scale(cfg, 300, 1500)) * 1e-3
	t := NewTable("E14", "DHT under garbage collection",
		"one GC-ing node bottlenecks synchronous replication; adaptive acks ride it out",
		"configuration", "puts", "relative", "hinted handoffs")
	tel := cfg.telemetry()
	t.Telemetry = tel
	run := func(name string, gc, adaptive bool) (int64, int64) {
		ss := shardedCluster(cfg, tel)
		d := cluster.NewDHT(ss, cluster.DHTParams{
			Nodes: 4, Replication: 2, OpQuantum: clusterQuantum,
			Adaptive: adaptive, SampleEvery: 1e-3,
		})
		if tel != nil {
			d.SetTracer(tel.Tracer)
			tel.attachProfileSharded(ss, tel.nextRun(name))
			if tel.Audit != nil && adaptive {
				d.EnableAudit(tel.Audit)
			}
		}
		if gc {
			cancel := d.StartGC(0, 40e-3, 35e-3)
			defer cancel()
		}
		puts := d.RunLoad(8, dur)
		tel.endSharded(ss)
		cfg.observeBarrier(name, ss)
		return puts, d.Hints()
	}
	healthy, _ := run("healthy-sync", false, false)
	gcSync, _ := run("gc-sync", true, false)
	gcAdaptive, hints := run("gc-adaptive", true, true)
	t.AddRow("no GC, synchronous", fmt.Sprintf("%d", healthy), "1.00x", "0")
	t.AddRow("GC on node 0, synchronous", fmt.Sprintf("%d", gcSync),
		fmt.Sprintf("%.2fx", float64(gcSync)/float64(healthy)), "0")
	t.AddRow("GC on node 0, adaptive", fmt.Sprintf("%d", gcAdaptive),
		fmt.Sprintf("%.2fx", float64(gcAdaptive)/float64(healthy)), fmt.Sprintf("%d", hints))
	t.SetMetric("puts_healthy", float64(healthy))
	t.SetMetric("puts_gc_sync", float64(gcSync))
	t.SetMetric("puts_gc_adaptive", float64(gcAdaptive))
	t.SetMetric("hints", float64(hints))
	t.AddNote("adaptive mode detects the stutterer peer-relatively and defers its ack (hinted handoff), trading redundancy debt for availability")
	return t
}

// sortTasks builds the distributed-sort task set: partitions of a record
// space with n log n cost scaling. One unit is one record's share of the
// sort; virtual time has no timer floor, so records map to units 1:1.
func sortTasks(partitions, recordsPerPartition int) []cluster.Task {
	tasks := make([]cluster.Task, partitions)
	for i := range tasks {
		tasks[i] = cluster.Task{
			ID:    i,
			Units: workload.SortUnits(recordsPerPartition, recordsPerPartition),
		}
	}
	return tasks
}

func runE15(cfg Config) *Table {
	// Paper-scale record counts: NOW-Sort partitions a keyspace across
	// nodes; we sort 2^18 (quick) / 2^20 (full) records in 64 partitions.
	records := int(scale(cfg, 1<<18, 1<<20))
	const partitions = 64
	tasks := func() []cluster.Task { return sortTasks(partitions, records/partitions) }
	t := NewTable("E15", "Distributed sort with a CPU hog",
		"static design: 2x slowdown from one loaded node; pull-based sheds it",
		"scheduler", "no hog", "hog on node 0", "hog slowdown")
	tel := cfg.telemetry()
	t.Telemetry = tel
	schedulers := []cluster.Scheduler{
		cluster.StaticPartition{},
		cluster.GaugedPartition{},
		cluster.WorkQueue{},
		cluster.DetectAvoid{},
	}
	for _, sched := range schedulers {
		base := clusterRunT(cfg, tel, sched.Name()+"-healthy", sched, tasks(), nil).Makespan
		// The hog halves node 0's effective CPU for the whole job.
		hogged := clusterRunT(cfg, tel, sched.Name()+"-hog", sched, tasks(), func(p *cluster.Pool) {
			p.Workers()[0].SetSpeed(0.5)
		}).Makespan
		ratio := hogged / base
		t.AddRow(sched.Name(), fmtVirt(base), fmtVirt(hogged), fmt.Sprintf("%.2fx", ratio))
		t.SetMetric("healthy_ms_"+sched.Name(), base*1e3)
		t.SetMetric("hog_ms_"+sched.Name(), hogged*1e3)
		t.SetMetric("slowdown_"+sched.Name(), ratio)
	}
	t.AddNote("%d records in %d partitions, sized via the n log n sort cost model; hog implemented as a 50%% CPU share", records, partitions)
	return t
}

func runE23(cfg Config) *Table {
	nTasks := 48
	units := int(scale(cfg, 2048, 8192))
	// The slow-down failure strikes a quarter of the way into the
	// healthy-case job.
	degradeAt := sim.Duration(nTasks*units) * clusterQuantum / 4 / 4
	t := NewTable("E23", "Slow-down failures: reissue and reconcile",
		"reissue bounds the tail; reconciliation bounds wasted work",
		"scheduler", "makespan", "wasted units", "duplicate launches")
	tel := cfg.telemetry()
	t.Telemetry = tel
	for _, sched := range []cluster.Scheduler{
		cluster.WorkQueue{},
		cluster.Hedged{MaxClones: 1},
		cluster.Reissue{TimeoutFactor: 3, MaxClones: 1},
	} {
		// Worker 0 suffers a severe slow-down failure partway into the job.
		r := clusterRunT(cfg, tel, sched.Name(), sched, cluster.UniformTasks(nTasks, units),
			func(p *cluster.Pool) {
				p.SetSpeedAt(0, degradeAt, 0.02)
			})
		t.AddRow(r.Scheduler, fmtVirt(r.Makespan),
			fmt.Sprintf("%.0f", r.WastedUnits), fmt.Sprintf("%d", r.Duplicates))
		t.SetMetric("makespan_ms_"+r.Scheduler, r.Makespan*1e3)
		t.SetMetric("wasted_"+r.Scheduler, r.WastedUnits)
		t.SetMetric("dups_"+r.Scheduler, float64(r.Duplicates))
	}
	totalUnits := nTasks * units
	t.AddNote("total required work %d units; wasted work stays a small fraction thanks to the completion claim", totalUnits)
	t.SetMetric("total_units", float64(totalUnits))
	return t
}

func runE29(cfg Config) *Table {
	rounds := int(scale(cfg, 4, 8))
	units := int(scale(cfg, 4096, 16384))
	grain := units / 16
	t := NewTable("E29", "Bulk-synchronous parallelism under a slow node",
		"a static BSP machine pays the straggler at every barrier; elastic rounds contain it",
		"design", "healthy", "one node at 25%", "slowdown")
	tel := cfg.telemetry()
	t.Telemetry = tel
	runBSP := func(name string, params cluster.BSPParams, slowSpeed float64) sim.Duration {
		ss := shardedCluster(cfg, tel)
		p := cluster.NewPool(ss, 4, clusterQuantum)
		if tel != nil {
			p.SetTracer(tel.Tracer)
			tel.attachProfileSharded(ss, tel.nextRun(name))
		}
		if slowSpeed > 0 {
			p.Workers()[0].SetSpeed(slowSpeed)
		}
		r := cluster.RunBSP(p, params)
		tel.endSharded(ss)
		cfg.observeBarrier(name, ss)
		return r.Makespan
	}
	for _, elastic := range []bool{false, true} {
		name := "static rounds"
		if elastic {
			name = "elastic rounds"
		}
		key0 := "static"
		if elastic {
			key0 = "elastic"
		}
		params := cluster.BSPParams{Rounds: rounds, UnitsPerWorkerRound: units, Elastic: elastic, Grain: grain}
		healthy := runBSP(key0+"-healthy", params, 0)
		slow := runBSP(key0+"-slow", params, 0.25)
		ratio := slow / healthy
		t.AddRow(name, fmtVirt(healthy), fmtVirt(slow), fmt.Sprintf("%.2fx", ratio))
		key := "static"
		if elastic {
			key = "elastic"
		}
		t.SetMetric("healthy_ms_"+key, healthy*1e3)
		t.SetMetric("slow_ms_"+key, slow*1e3)
		t.SetMetric("slowdown_"+key, ratio)
	}
	t.AddNote("the barrier is inherent to the algorithm; the design choice is whether work within a round is fixed or pulled")
	return t
}

func runE24(cfg Config) *Table {
	nTasks := 48
	units := int(scale(cfg, 2048, 8192))
	degradeAt := sim.Duration(nTasks*units) * clusterQuantum / 4 / 4
	t := NewTable("E24", "Scheduler comparison",
		"increasing fail-stutter awareness narrows the gap to fault-free performance",
		"scheduler", "healthy", "static slow node", "mid-job degradation")
	tel := cfg.telemetry()
	t.Telemetry = tel
	for _, sched := range cluster.Schedulers() {
		healthy := clusterRunT(cfg, tel, sched.Name()+"-healthy", sched,
			cluster.UniformTasks(nTasks, units), nil).Makespan

		static := clusterRunT(cfg, tel, sched.Name()+"-static", sched,
			cluster.UniformTasks(nTasks, units), func(p *cluster.Pool) {
				p.Workers()[0].SetSpeed(0.25)
			}).Makespan

		mid := clusterRunT(cfg, tel, sched.Name()+"-mid", sched,
			cluster.UniformTasks(nTasks, units), func(p *cluster.Pool) {
				p.SetSpeedAt(0, degradeAt, 0.1)
			}).Makespan

		t.AddRow(sched.Name(), fmtVirt(healthy), fmtVirt(static), fmtVirt(mid))
		t.SetMetric("healthy_ms_"+sched.Name(), healthy*1e3)
		t.SetMetric("static_ms_"+sched.Name(), static*1e3)
		t.SetMetric("mid_ms_"+sched.Name(), mid*1e3)
	}
	return t
}
