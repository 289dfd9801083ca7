package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"failstutter/internal/experiments"
	"failstutter/internal/profile"
	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// cmdProfile runs each experiment with the profiling plane on and emits
// its artifacts into dir: the folded flame stacks (<ID>.folded.txt),
// the critical-path text report (<ID>.critpath.txt), the full profile
// JSON (<ID>.profile.json), and the SLO availability analysis
// (<ID>.slo.json); experiments on the sharded kernel additionally get
// the barrier cost profile (<ID>.barrier.json). The critical-path and
// barrier reports also print to stdout. All artifacts are
// byte-deterministic at a fixed seed and shard count.
func cmdProfile(cfg experiments.Config, ids []string, dir string, sloThreshold float64, topN int) {
	cfg.Profile = true
	meta := runMeta(cfg)
	for _, id := range ids {
		e, err := experiments.Get(id)
		if err != nil {
			fail(err)
		}
		tbl := e.Run(cfg)
		tel := tbl.Telemetry
		if tel != nil && tel.Tracer != nil {
			rep := profile.Analyze(tel.Tracer, tel.Metrics)
			slo := profile.AnalyzeSLO(tel.Tracer, profile.SLOConfig{Threshold: sloThreshold})
			rep.Meta, slo.Meta = meta, meta

			fmt.Printf("== %s: profile ==\n", tbl.ID)
			if err := rep.WriteText(os.Stdout, topN); err != nil {
				fail(err)
			}
			fmt.Printf("slo: %s availability %.4f (%d/%d within %.4gs threshold",
				slo.Category, slo.Availability, slo.Within, slo.Offered, slo.Threshold)
			if slo.Auto {
				fmt.Print(", auto")
			}
			fmt.Println(")")

			writeArtifact(filepath.Join(dir, tbl.ID+".folded.txt"), rep.WriteFolded)
			writeArtifact(filepath.Join(dir, tbl.ID+".profile.json"), rep.WriteJSON)
			writeArtifact(filepath.Join(dir, tbl.ID+".slo.json"), slo.WriteJSON)
			writeArtifact(filepath.Join(dir, tbl.ID+".critpath.txt"), func(w io.Writer) error {
				return rep.WriteText(w, topN)
			})
		}

		brep := barrierPass(cfg, e)
		if brep != nil {
			brep.Meta = meta
			if err := brep.WriteText(os.Stdout); err != nil {
				fail(err)
			}
			writeArtifact(filepath.Join(dir, tbl.ID+".barrier.json"), brep.WriteJSON)
		}
		if (tel == nil || tel.Tracer == nil) && brep == nil {
			fail(fmt.Errorf("experiment %s produced no telemetry to profile", id))
		}
	}
}

// runMeta builds the artifact header stamp for the current invocation:
// the run identity plus the parallelism it executes under.
func runMeta(cfg experiments.Config) profile.RunMeta {
	return profile.RunMeta{
		Seed: cfg.Seed, Quick: cfg.Quick,
		Shards:     cfg.ShardCount(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// barrierPass reruns an experiment with every telemetry plane off at
// the configured shard count, collecting each sharded kernel's barrier
// cost profile. Telemetry no longer constrains the schedule — traced
// runs use per-shard collectors — but the barrier numbers should
// measure the kernel itself, so this pass keeps the collectors out of
// the loop. Experiments that never build a sharded kernel return nil
// and emit no artifact. The JSON artifact holds only the deterministic
// fields; the wall-clock window/barrier split goes to stdout.
func barrierPass(cfg experiments.Config, e experiments.Experiment) *profile.BarrierReport {
	cfg.Profile, cfg.Trace, cfg.Audit, cfg.Metrics = false, false, false, false
	rep := &profile.BarrierReport{Experiment: e.ID}
	cfg.ObserveBarrier = func(run string, st sim.BarrierStats, perShard []uint64) {
		rep.Runs = append(rep.Runs, profile.BarrierRun{
			Run: run, Shards: len(perShard), BarrierStats: st, PerShardFired: perShard,
		})
	}
	e.Run(cfg)
	if len(rep.Runs) == 0 {
		return nil
	}
	return rep
}

// cmdPerfDiff diffs two benchmark artifacts through the repo's own
// detection plane and prints the verdict table. With gate set, a
// regression exits 1 (the CI failure mode); otherwise the diff is
// warn-only.
func cmdPerfDiff(oldPath, newPath string, threshold float64, gate bool) {
	oldA, err := profile.ReadBenchFile(oldPath)
	if err != nil {
		fail(err)
	}
	newA, err := profile.ReadBenchFile(newPath)
	if err != nil {
		fail(err)
	}
	rep := profile.PerfDiff(oldA, newA, profile.PerfDiffConfig{Threshold: threshold})
	if err := rep.WriteText(os.Stdout); err != nil {
		fail(err)
	}
	if rep.Failed() {
		if gate {
			os.Exit(1)
		}
		fmt.Println("warn: performance regression detected (gate off; failing would need -gate)")
	}
}

// benchTargets are the representative workloads `fstutter bench` times:
// a RAID scenario, the disk plane, the DHT, the scheduler engine, and
// the sharded fleet — one per major subsystem, all in quick mode so a
// full sample set runs in seconds.
var benchTargets = []string{"E01", "E05", "E14", "E23", "E32"}

// benchSuites are the plane-level workloads timed end to end at the
// configured shard count: every experiment of the sharded switch fabric
// and of the cluster plane, run back to back as one op. These are the
// suites the shard-count flag exists for, so their wall-clock is the
// number the "-shards pays off" question is answered with.
var benchSuites = []struct {
	name string
	ids  []string
}{
	{"suite/switch", []string{"E10", "E11", "E12"}},
	{"suite/cluster", []string{"E14", "E15", "E23", "E24", "E29"}},
}

// megaFleetDisks is the full-scale fleet the dedicated bench entries
// run: the datacenter configuration the sharded kernel exists for.
const megaFleetDisks = 1 << 20

// oversubscription returns why a bench run would time threads contending
// for cores instead of the implementation — more Go threads or shards
// than the host has CPUs — or "" when none would. The barrier sweep is as
// wide as the kernel's shards, so the shard check covers it too.
func oversubscription(gomaxprocs, numcpu, shards int) string {
	switch {
	case gomaxprocs > numcpu:
		return fmt.Sprintf("gomaxprocs %d exceeds numcpu %d", gomaxprocs, numcpu)
	case shards > numcpu:
		return fmt.Sprintf("-shards %d exceeds numcpu %d", shards, numcpu)
	}
	return ""
}

// cmdBench measures each target experiment samples times with the
// testing package's benchmark driver and writes a canonical benchmark
// artifact to outPath (stdout when empty). Unlike every other artifact,
// ns/op is wall-clock: this is the one command whose output measures the
// implementation rather than the simulation.
//
// On top of the quick-mode experiment targets, the mega-fleet scenario
// runs at full scale (~1M disks) twice — one shard, then one shard per
// core — recording wall-clock ns per run, events/sec, bytes and
// allocations per run, and the serial-vs-sharded speedup. These runs cost tens of
// seconds each, so they are capped at two samples regardless of
// -samples.
//
// An oversubscribed baseline measures contention, not the code, so
// cmdBench exits 2 with a one-line reason, before running anything, when
// GOMAXPROCS or -shards exceeds the host's CPU count. It
// exits 2 the same way when -samples is below 1, which would write
// entries with no samples.
func cmdBench(cfg experiments.Config, samples int, outPath string) {
	if samples < 1 {
		fmt.Fprintf(os.Stderr, "fstutter bench: -samples must be at least 1, got %d\n", samples)
		os.Exit(2)
	}
	cfg.Quick = true
	if reason := oversubscription(runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.ShardCount()); reason != "" {
		fmt.Fprintf(os.Stderr, "fstutter bench: refusing to write an oversubscribed baseline: %s\n", reason)
		os.Exit(2)
	}
	art := &profile.BenchArtifact{
		Schema: profile.BenchSchema, Seed: cfg.Seed, Quick: true,
		Shards:       cfg.ShardCount(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		SweepWorkers: cfg.ShardCount(),
	}
	for _, id := range benchTargets {
		e, err := experiments.Get(id)
		if err != nil {
			fail(err)
		}
		b := profile.Bench{Name: "experiment/" + id, Unit: "ns/op"}
		for i := 0; i < samples; i++ {
			res := testing.Benchmark(func(tb *testing.B) {
				for n := 0; n < tb.N; n++ {
					e.Run(cfg)
				}
			})
			b.Samples = append(b.Samples, float64(res.NsPerOp()))
		}
		fmt.Fprintf(os.Stderr, "bench %-16s median %.4g ns/op over %d samples\n",
			b.Name, b.Median(), samples)
		art.Benchmarks = append(art.Benchmarks, b)
	}

	for _, suite := range benchSuites {
		runs := make([]experiments.Experiment, len(suite.ids))
		for i, id := range suite.ids {
			e, err := experiments.Get(id)
			if err != nil {
				fail(err)
			}
			runs[i] = e
		}
		b := profile.Bench{Name: suite.name, Unit: "ns/op"}
		for i := 0; i < samples; i++ {
			res := testing.Benchmark(func(tb *testing.B) {
				for n := 0; n < tb.N; n++ {
					for _, e := range runs {
						e.Run(cfg)
					}
				}
			})
			b.Samples = append(b.Samples, float64(res.NsPerOp()))
		}
		fmt.Fprintf(os.Stderr, "bench %-16s (%d shards) median %.4g ns/op over %d samples\n",
			b.Name, cfg.ShardCount(), b.Median(), samples)
		art.Benchmarks = append(art.Benchmarks, b)
	}

	fleetSamples := min(samples, 2)
	configs := []struct {
		name   string
		shards int
		traced bool
	}{
		// The headline pair: fully serial (one shard, so one sweep
		// worker) versus the configured parallelism.
		{name: "fleet/1M/serial", shards: 1},
		{name: "fleet/1M/sharded", shards: cfg.ShardCount()},
		// The tracing tax at fleet scale: the same sharded configuration
		// with per-shard collectors and the flight recorder on.
		{name: "fleet/1M/traced", shards: cfg.ShardCount(), traced: true},
	}
	medians := map[string]float64{}
	for _, c := range configs {
		b := profile.Bench{Name: c.name, Unit: "ns/op"}
		rates := profile.Bench{Name: c.name + "/events", Unit: "events/s"}
		bytes := profile.Bench{Name: c.name + "/bytes", Unit: "B/op"}
		allocs := profile.Bench{Name: c.name + "/allocs", Unit: "allocs/op"}
		for i := 0; i < fleetSamples; i++ {
			var events uint64
			res := testing.Benchmark(func(tb *testing.B) {
				for n := 0; n < tb.N; n++ {
					var tel *experiments.Telemetry
					if c.traced {
						tel = &experiments.Telemetry{Tracer: trace.NewTracer(), Metrics: trace.NewRegistry()}
						tel.Tracer.SetFlightRecorder(experiments.FleetRecorder(cfg.Seed))
					}
					r := experiments.RunFleetScenario(experiments.FleetParams{
						Disks: megaFleetDisks, Shards: c.shards, Seed: cfg.Seed,
						Telemetry: tel,
					})
					events = r.Events
				}
			})
			ns := float64(res.NsPerOp())
			b.Samples = append(b.Samples, ns)
			rates.Samples = append(rates.Samples, float64(events)/(ns/1e9))
			bytes.Samples = append(bytes.Samples, float64(res.AllocedBytesPerOp()))
			allocs.Samples = append(allocs.Samples, float64(res.AllocsPerOp()))
		}
		fmt.Fprintf(os.Stderr, "bench %-24s (%d disks, %d shards) median %.4g ns/run, %.3g events/sec, %.4g B/run, %.4g allocs/run\n",
			b.Name, megaFleetDisks, c.shards, b.Median(), rates.Median(), bytes.Median(), allocs.Median())
		medians[c.name] = b.Median()
		art.Benchmarks = append(art.Benchmarks, b, rates, bytes, allocs)
	}
	if s, p := medians["fleet/1M/serial"], medians["fleet/1M/sharded"]; s > 0 && p > 0 {
		fmt.Fprintf(os.Stderr, "bench fleet/1M speedup: sharded is %.2fx serial wall-clock\n", s/p)
	}
	if p, tr := medians["fleet/1M/sharded"], medians["fleet/1M/traced"]; p > 0 && tr > 0 {
		fmt.Fprintf(os.Stderr, "bench fleet/1M tracing tax: traced is %.2fx sharded wall-clock\n", tr/p)
	}

	if outPath == "" {
		if err := art.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	writeArtifact(outPath, art.WriteJSON)
}
