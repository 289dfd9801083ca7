package experiments

import (
	"fmt"
	"strconv"
	"strings"

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
	// SweepWorkers is ignored: the barrier sweep fans across one worker
	// per shard.
	//
	// Deprecated: kept only so existing callers that set it still build.
	SweepWorkers int
	// Rebalance is ignored: disks are always dealt to shards in
	// contiguous index blocks.
	//
	// Deprecated: kept only so existing callers that set it still build.
	Rebalance bool
	// ObserveBarrier, when non-nil, enables the kernel's barrier cost
	// counters and receives the profile after the run.
	ObserveBarrier func(st sim.BarrierStats, perShard []uint64)
	// Telemetry, when non-nil, traces the fleet: per-shard collectors are
	// installed on the kernel and every disk station records into its home
	// shard's collector. Fleet runs are expected to put Telemetry.Tracer
	// under a flight recorder (FleetRecorder), whose bound every per-shard
	// collector inherits — retaining every span of a million-disk run
	// wholesale is exactly what the recorder exists to avoid.
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

// Fleet fault injection: 1-in-512 disks stutter to a quarter of their
// rate and 1-in-1024 fail outright, both at the fault tick.
const (
	fleetStutterFrac = 1.0 / 512
	fleetFailFrac    = 1.0 / 1024
	fleetStutterMult = 0.25
)

// fleet holds every per-disk structure of one scenario in dense slabs
// indexed by disk, so building n disks costs a few allocations per shard
// block plus two per disk: the completion closure and the station's bound
// finish.
type fleet struct {
	// ticks is the number of sweeps; faults inject at faultTick + ½.
	ticks, faultTick int

	ids      []string
	stations []sim.Station
	disks    []fleetDisk
	// faultKind is 0 healthy, 1 stutter, 2 fail.
	faultKind []uint8
	// flagTick is the sweep a faulty disk was first flagged at, -1 until
	// then.
	flagTick []int32
	// samples is each disk's rate over the last tick, written by its
	// shard's sampler and read by the sweep.
	samples []float64
}

func newFleet(n, ticks int) *fleet {
	return &fleet{
		ticks:     ticks,
		faultTick: ticks / 3,
		ids:       make([]string, n),
		stations:  make([]sim.Station, n),
		disks:     make([]fleetDisk, n),
		faultKind: make([]uint8, n),
		flagTick:  make([]int32, n),
		samples:   make([]float64, n),
	}
}

// appendDiskID appends disk i's id, fmt's "d%07d", to b.
func appendDiskID(b []byte, i int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(i), 10)
	b = append(b, 'd')
	for k := len(d); k < 7; k++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// nameBlock sets the ids of disks [lo, hi) as substrings of one string:
// a builder never rewrites bytes it has written, so each id stays valid
// as the block grows behind it.
func (f *fleet) nameBlock(lo, hi int) {
	var sb strings.Builder
	sb.Grow((hi - lo) * len("d0000000"))
	var buf [24]byte
	for i := lo; i < hi; i++ {
		start := sb.Len()
		sb.Write(appendDiskID(buf[:0], i))
		f.ids[i] = sb.String()[start:]
	}
}

// buildBlock builds disks [lo, hi), the block shard sh owns, in index
// order, arms the shard's sampler over them, and returns how many disks
// it set to stutter and to fail. Each disk draws its base rate and fault
// from its own stream, forked by disk id, so the draws do not depend on
// the split. A first pass makes the draws, which fixes how many events
// the block schedules (one completion per disk, one injection per faulty
// disk, one sampler tick), so the shard's event arena is sized once; the
// second builds the disks. tr is the shard's trace collector, nil when
// tracing is off.
func (f *fleet) buildBlock(sh *sim.Simulator, tr *trace.Tracer, root *sim.RNG, lo, hi int) (stutter, fail int) {
	f.nameBlock(lo, hi)
	for i := lo; i < hi; i++ {
		rng := root.Fork(f.ids[i])
		rate := 80 + 40*rng.Float64()
		// Two completions per tick. Halving is exact, so 2·Size gives
		// the rate back.
		f.disks[i].req.Size = rate * 0.5
		f.flagTick[i] = -1
		switch u := rng.Float64(); {
		case u < fleetFailFrac:
			f.faultKind[i] = 2
			fail++
		case u < fleetFailFrac+fleetStutterFrac:
			f.faultKind[i] = 1
			stutter++
		}
	}
	sh.Reserve(hi - lo + stutter + fail + 1)
	tr.ReserveTracks(hi - lo)
	at := float64(f.faultTick) + 0.5
	for i := lo; i < hi; i++ {
		d := &f.disks[i]
		d.st = &f.stations[i]
		d.st.Init(sh, f.ids[i], 2*d.req.Size)
		if tr != nil {
			d.st.SetTracer(tr)
		}
		// The closed loop resubmits the same request object, so steady
		// state allocates nothing.
		d.req.OnDone = func(r *sim.Request) {
			d.done += r.Size
			d.st.Submit(r)
		}
		d.st.Submit(&d.req)
		switch f.faultKind[i] {
		case 2:
			sh.At(at, d.st.Fail)
		case 1:
			sh.At(at, func() { d.st.SetMultiplier(fleetStutterMult) })
		}
	}

	// The shard's sampler: at every tick it snapshots its own disks' work
	// counters into samples — shard-local writes only, so the parallel
	// window needs no synchronization.
	var sample func()
	sample = func() {
		for i := lo; i < hi; i++ {
			d := &f.disks[i]
			cum := d.done + d.st.ServedInCurrent()
			f.samples[i] = (cum - d.prev) / fleetTick
			d.prev = cum
		}
		if sh.Now()+fleetTick <= float64(f.ticks) {
			sh.After(fleetTick, sample)
		}
	}
	sh.At(fleetTick, sample)
	return stutter, fail
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
	ss := sim.NewSharded(p.Shards, fleetTick)
	pool := ss.BarrierPool()
	if p.ObserveBarrier != nil {
		ss.Profile()
	}
	p.Telemetry.attachSharded(ss)

	// Shard s of k owns the contiguous disk block [s·n/k, (s+1)·n/k) — the
	// split the barrier sweep's worker chunks use. The kernel's barrier
	// pool has one worker per shard, so each chunk covers exactly the
	// disks one shard just sampled, and worker s builds shard s's block:
	// a block touches only its own disks, its shard's kernel and its
	// shard's trace collector, and the injected-fault counts are reduced
	// in shard order after the join.
	root := sim.NewRNG(p.Seed).Fork("e32")
	f := newFleet(p.Disks, p.Ticks)
	injected := make([][2]int, p.Shards)
	pool.Do(func(shard int) {
		lo, hi := p.Disks*shard/p.Shards, p.Disks*(shard+1)/p.Shards
		injected[shard][0], injected[shard][1] = f.buildBlock(ss.Shard(shard), ss.ShardTracer(shard), root, lo, hi)
	})
	res := FleetResult{}
	for _, c := range injected {
		res.InjectedStutter += c[0]
		res.InjectedFail += c[1]
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
	ps.RegisterAll(f.ids)
	verdicts := make([]spec.Verdict, p.Disks)
	sweep := 1
	lagSum, lagN := 0, 0
	ss.SetBarrier(func(h sim.Time) {
		for sweep <= p.Ticks && float64(sweep) < h {
			now := float64(sweep)
			ps.SweepObserve(pool, now, f.samples)
			flagged := ps.SweepVerdicts(pool, now, verdicts)
			for i, v := range verdicts {
				if v == spec.Nominal {
					continue
				}
				if f.faultKind[i] != 0 && f.flagTick[i] < 0 {
					f.flagTick[i] = int32(sweep)
					lagSum += sweep - f.faultTick
					lagN++
				}
				if sweep == p.Ticks {
					switch {
					case f.faultKind[i] == 2 && v == spec.AbsoluteFaulty:
						res.DetectedFail++
					case f.faultKind[i] == 1 && v == spec.PerfFaulty:
						res.DetectedStutter++
					case f.faultKind[i] == 0:
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
		tel.Tracer.SetFlightRecorder(FleetRecorder(cfg.Seed))
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
			ObserveBarrier: obs, Telemetry: tel,
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
