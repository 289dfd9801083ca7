package experiments

import (
	"fmt"

	"failstutter/internal/detect"
	"failstutter/internal/sim"
	"failstutter/internal/spec"
	"failstutter/internal/trace"
)

// E32 is the datacenter-scale capstone of the sharded kernel: a fleet of
// up to a million simulated disks, partitioned across shards, each a
// closed-loop station draining work at a heterogeneous base rate, with
// detect.PeerSet sweeping the whole fleet every virtual second from the
// conservative barrier. A small fraction of disks stutter (rate x0.25)
// or fail outright mid-run; the peer-relative detector must flag the
// divergent disks — and only them — without any absolute specification,
// at fleet sizes where per-spec tracking is operationally absurd.
//
// Everything in the table and telemetry depends only on virtual time and
// per-disk RNG streams, so the output is byte-identical at any shard
// count; wall-clock throughput (the events/sec headline) is measured
// separately by `fstutter bench`.

func init() {
	register(Experiment{
		ID:    "E32",
		Title: "Million-disk fleet: peer detection at datacenter scale",
		PaperClaim: "in a system of hundreds or thousands of disks, it is " +
			"likely that a number of them will perform at levels beneath " +
			"their peers (Section 2.3); techniques that scale to such " +
			"fleets must compare components against each other, not " +
			"against a static specification (Section 3.2)",
		Run: runE32,
	})
}

// fleetTick is the virtual-time interval between fleet sweeps, and also
// the sharded kernel's lookahead bound: the fleet's disks never interact
// within a tick, so any positive lookahead is safe, and one tick per
// window keeps every barrier aligned with a sweep.
const fleetTick = sim.Duration(1)

// FleetParams configures one fleet scenario run.
type FleetParams struct {
	// Disks is the fleet size.
	Disks int
	// Shards is the shard count for the underlying kernel (minimum 1).
	Shards int
	// Seed drives every per-disk stream (forked by disk identity).
	Seed uint64
	// Ticks is the number of fleet sweeps; faults inject after a third of
	// them. Zero means the default 12.
	Ticks int
	// SweepWorkers sizes the barrier's worker pool: the fleet sweep's
	// observe and classify phases fan across this many workers. Zero means
	// GOMAXPROCS. The result is byte-identical at any value.
	SweepWorkers int
	// Rebalance load-balances disks across shards before construction: an
	// analytic per-disk event-cost model, built from each disk's fault
	// draw, feeds sim.RecommendPlacement, and the plan is installed with
	// SetPlacement.
	// Placement is just another partition, so results are unchanged; only
	// the per-shard wall-clock balance moves.
	Rebalance bool
	// ObserveBarrier, when non-nil, enables the kernel's barrier cost
	// counters and receives the profile after the run.
	ObserveBarrier func(st sim.BarrierStats, perShard []uint64)
	// Telemetry, when non-nil, traces the fleet: per-shard collectors are
	// installed on the kernel and every disk station records into its home
	// shard's collector. Fleet runs are expected to set Telemetry.Recorder
	// (the flight-recorder bound) — retaining every span of a million-disk
	// run wholesale is exactly what the recorder exists to avoid.
	Telemetry *Telemetry
}

// FleetResult is the scenario's virtual-time outcome. Every field is
// byte-deterministic for given params regardless of shard count.
type FleetResult struct {
	// Events is the total kernel events executed on behalf of disks:
	// completions, fault injections, and sweeps. Per-shard sampler
	// bookkeeping events are excluded — their count scales with the shard
	// count, and this figure must not.
	Events uint64
	// InjectedStutter and InjectedFail count the faulty disks.
	InjectedStutter int
	InjectedFail    int
	// DetectedStutter / DetectedFail count injected faults the final
	// sweep classifies as performance-faulty / absolutely-failed.
	DetectedStutter int
	DetectedFail    int
	// FalseAlarms counts healthy disks flagged at the final sweep.
	FalseAlarms int
	// MeanLagTicks is the mean sweeps-after-injection before a detected
	// fault was first flagged.
	MeanLagTicks float64
	// FlaggedPerSweep records how many disks any sweep flagged, one entry
	// per tick — the series the telemetry plane exports.
	FlaggedPerSweep []int
}

// fleetDisk is one simulated disk: a closed-loop station that always has
// a request in flight, so it drains work at exactly its effective rate.
type fleetDisk struct {
	st  *sim.Station
	req sim.Request
	// done accumulates completed request sizes; done + ServedInCurrent is
	// the disk's exact cumulative work counter.
	done float64
	// prev is the counter at the previous sweep.
	prev float64
}

// RunFleetScenario runs one fleet scenario on a sharded kernel and
// returns its outcome. Exported so `fstutter bench` can time the
// million-disk configuration directly at full scale.
func RunFleetScenario(p FleetParams) FleetResult {
	if p.Ticks == 0 {
		p.Ticks = 12
	}
	if p.Shards < 1 {
		p.Shards = 1
	}
	faultTick := p.Ticks / 3
	const (
		stutterFrac = 1.0 / 512
		failFrac    = 1.0 / 1024
		stutterMult = 0.25
	)
	ss := sim.NewSharded(p.Shards, fleetTick)
	ss.SetBarrierParallelism(p.SweepWorkers)
	pool := ss.BarrierPool()
	if p.ObserveBarrier != nil {
		ss.Profile()
	}
	// Draw every disk's base rate and fault from its own stream, forked by
	// disk identity, before anything is built: placement needs the fault
	// draws ahead of construction. faultKind: 0 healthy, 1 stutter, 2 fail.
	root := sim.NewRNG(p.Seed).Fork("e32")
	ids := make([]string, p.Disks)
	rates := make([]float64, p.Disks)
	faultKind := make([]uint8, p.Disks)
	res := FleetResult{}
	for i := range ids {
		ids[i] = fmt.Sprintf("d%07d", i)
		rng := root.Fork(ids[i])
		rates[i] = 80 + 40*rng.Float64()
		switch u := rng.Float64(); {
		case u < failFrac:
			faultKind[i] = 2
			res.InjectedFail++
		case u < failFrac+stutterFrac:
			faultKind[i] = 1
			res.InjectedStutter++
		}
	}
	if p.Rebalance {
		// Each disk's predicted event count: two completions per tick at
		// full rate, plus the injection event — a failed disk stops at the
		// fault tick, a stuttered one drops to a quarter rate (one
		// completion every two ticks). RecommendPlacement only needs the
		// ratios.
		loads := make([]sim.Load, p.Disks)
		for i, id := range ids {
			cost := 2 * float64(p.Ticks)
			switch faultKind[i] {
			case 2:
				cost = 2*float64(faultTick) + 1
			case 1:
				cost = 2*float64(faultTick) + 0.5*float64(p.Ticks-faultTick) + 1
			}
			loads[i] = sim.Load{ID: id, Cost: cost}
		}
		ss.SetPlacement(sim.RecommendPlacement(loads, p.Shards))
	}
	p.Telemetry.attachSharded(ss)

	disks := make([]fleetDisk, p.Disks)
	// flagTick is the sweep a faulty disk was first flagged at, -1 until
	// then.
	flagTick := make([]int32, p.Disks)
	byShard := make([][]int32, p.Shards)
	for i := range disks {
		flagTick[i] = -1
		shard := ss.ShardFor(ids[i])
		byShard[shard] = append(byShard[shard], int32(i))
		sh := ss.Shard(shard)
		rate := rates[i]
		d := &disks[i]
		d.st = sim.NewStation(sh, ids[i], rate)
		if tr := ss.ShardTracer(shard); tr != nil {
			d.st.SetTracer(tr)
		}
		// Two completions per tick: the closed loop resubmits the same
		// request object, so steady state allocates nothing.
		d.req.Size = rate * 0.5
		d.req.OnDone = func(r *sim.Request) {
			d.done += r.Size
			d.st.Submit(r)
		}
		d.st.Submit(&d.req)
		switch faultKind[i] {
		case 2:
			sh.At(float64(faultTick)+0.5, d.st.Fail)
		case 1:
			sh.At(float64(faultTick)+0.5, func() { d.st.SetMultiplier(stutterMult) })
		}
	}

	// Per-shard samplers: at every tick each shard snapshots its own
	// disks' work counters into samples — shard-local writes only, so the
	// parallel window needs no synchronization.
	samples := make([]float64, p.Disks)
	for shard := 0; shard < p.Shards; shard++ {
		local := byShard[shard]
		sh := ss.Shard(shard)
		var sample func()
		sample = func() {
			for _, i := range local {
				d := &disks[i]
				cum := d.done + d.st.ServedInCurrent()
				samples[i] = (cum - d.prev) / fleetTick
				d.prev = cum
			}
			if sh.Now()+fleetTick <= float64(p.Ticks) {
				sh.After(fleetTick, sample)
			}
		}
		sh.At(fleetTick, sample)
	}

	// The barrier drains every tick's samples into the fleet sweep: all
	// shards have sampled tick k once the window horizon passes k. The
	// sweep itself fans across the kernel's barrier pool — observe all,
	// refill the median band with one O(P) select on the coordinator,
	// classify all — with every reduction in dense disk order, so the
	// outcome is byte-identical at any worker count. Only the serial
	// bookkeeping loop below reads the verdicts.
	ps := detect.NewPeerSet(detect.PeerConfig{
		WindowSamples: 4, Threshold: 0.7, MinPeers: 4, PromotionTimeout: 2.5,
	})
	for _, id := range ids {
		ps.Register(id)
	}
	verdicts := make([]spec.Verdict, p.Disks)
	sweep := 1
	lagSum, lagN := 0, 0
	ss.SetBarrier(func(h sim.Time) {
		for sweep <= p.Ticks && float64(sweep) < h {
			now := float64(sweep)
			ps.SweepObserve(pool, now, samples)
			flagged := ps.SweepVerdicts(pool, now, verdicts)
			for i, v := range verdicts {
				if v == spec.Nominal {
					continue
				}
				if faultKind[i] != 0 && flagTick[i] < 0 {
					flagTick[i] = int32(sweep)
					lagSum += sweep - faultTick
					lagN++
				}
				if sweep == p.Ticks {
					switch {
					case faultKind[i] == 2 && v == spec.AbsoluteFaulty:
						res.DetectedFail++
					case faultKind[i] == 1 && v == spec.PerfFaulty:
						res.DetectedStutter++
					case faultKind[i] == 0:
						res.FalseAlarms++
					}
				}
			}
			res.FlaggedPerSweep = append(res.FlaggedPerSweep, flagged)
			sweep++
		}
	})
	ss.RunUntil(float64(p.Ticks))
	if lagN > 0 {
		res.MeanLagTicks = float64(lagSum) / float64(lagN)
	}
	// Each shard's sampler chain fires exactly once per tick; subtract
	// that bookkeeping so Events is byte-identical at any shard count.
	res.Events = ss.EventsFired() - uint64(p.Shards)*uint64(p.Ticks)
	if p.ObserveBarrier != nil {
		p.ObserveBarrier(*ss.Profile(), ss.PerShardFired())
	}
	p.Telemetry.endSharded(ss)
	return res
}

// Flight-recorder bounds for traced fleet runs: enough retained spans to
// reconstruct incident timelines and latency profiles, small enough that
// tracing a 2^20-disk run costs megabytes of retention instead of the
// ~25M spans it records.
const (
	fleetRing      = 2048
	fleetReservoir = 2048
)

// FleetRecorder builds the flight-recorder configuration traced fleet
// runs share: the ring/reservoir bounds above with a sampling seed
// forked from the experiment seed, so the retained selection is
// deterministic and byte-identical at any shard count.
func FleetRecorder(seed uint64) trace.RecorderConfig {
	return trace.RecorderConfig{
		Ring:      fleetRing,
		Reservoir: fleetReservoir,
		Seed:      sim.NewRNG(seed).Fork("e32-flight-recorder").Uint64(),
	}
}

func runE32(cfg Config) *Table {
	t := NewTable("E32", "Fleet-scale peer detection",
		"peer-relative medians pick the divergent disks out of a fleet with no absolute spec; "+
			"the sharded kernel makes the fleet size a core-count problem, not a feasibility one",
		"disks", "events", "stutter found", "fail found", "false alarms", "detection lag")
	tel := cfg.telemetry()
	t.Telemetry = tel
	if tel != nil && tel.Tracer != nil {
		// Fleet traces run under the flight recorder: exact counts stay in
		// the merged registry, while span retention is bounded no matter
		// how many disks the fleet has. One seed for the whole experiment —
		// the destination tracer and every per-shard collector must agree
		// on sampling priorities for the merge to be placement-invariant.
		rc := FleetRecorder(cfg.Seed)
		tel.Recorder = &rc
		tel.Tracer.SetFlightRecorder(rc)
	}
	fleets := []int{512, 2048}
	if !cfg.Quick {
		fleets = []int{1 << 14, 1 << 17, 1 << 20}
	}
	var prevRecorded uint64
	for _, n := range fleets {
		var obs func(sim.BarrierStats, []uint64)
		if cfg.ObserveBarrier != nil {
			run := fmt.Sprintf("fleet-%d", n)
			obs = func(st sim.BarrierStats, perShard []uint64) {
				cfg.ObserveBarrier(run, st, perShard)
			}
		}
		r := RunFleetScenario(FleetParams{
			Disks: n, Shards: cfg.ShardCount(), Seed: cfg.Seed,
			SweepWorkers: cfg.SweepWorkers, ObserveBarrier: obs,
			Telemetry: tel,
		})
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%d/%d", r.DetectedStutter, r.InjectedStutter),
			fmt.Sprintf("%d/%d", r.DetectedFail, r.InjectedFail),
			fmt.Sprintf("%d", r.FalseAlarms),
			fmt.Sprintf("%.2f ticks", r.MeanLagTicks))
		t.SetMetric(fmt.Sprintf("events_%d", n), float64(r.Events))
		t.SetMetric(fmt.Sprintf("detected_stutter_%d", n), float64(r.DetectedStutter))
		t.SetMetric(fmt.Sprintf("injected_stutter_%d", n), float64(r.InjectedStutter))
		t.SetMetric(fmt.Sprintf("detected_fail_%d", n), float64(r.DetectedFail))
		t.SetMetric(fmt.Sprintf("injected_fail_%d", n), float64(r.InjectedFail))
		t.SetMetric(fmt.Sprintf("false_alarms_%d", n), float64(r.FalseAlarms))
		t.SetMetric(fmt.Sprintf("lag_ticks_%d", n), r.MeanLagTicks)
		if tel != nil && tel.Metrics != nil {
			run := fmt.Sprintf("fleet-%d", n)
			tel.Metrics.Counter("fleet-events", trace.L("run", run)).Add(r.Events)
			series := tel.Metrics.Series("fleet-flagged", trace.L("run", run))
			for k, f := range r.FlaggedPerSweep {
				series.Add(float64(k+1), float64(f))
			}
			if tel.Tracer != nil {
				// Exact span volume vs what the recorder retained: the gap
				// is the whole point of the flight recorder.
				rec := tel.Tracer.Recorded()
				tel.Metrics.Counter("fleet-trace-recorded", trace.L("run", run)).Add(rec - prevRecorded)
				prevRecorded = rec
				tel.Metrics.Counter("fleet-trace-retained", trace.L("run", run)).Add(uint64(tel.Tracer.Len()))
			}
		}
	}
	t.AddNote("disks are closed-loop stations at heterogeneous base rates; 1-in-512 stutter to 25%% and 1-in-1024 fail-stop mid-run")
	t.AddNote("one PeerSet sweep per virtual second from the conservative barrier: observe all, then classify all — the phase discipline the million-member median cache is built for")
	return t
}
