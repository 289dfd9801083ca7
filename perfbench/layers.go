package main

import (
	"flag"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"failstutter/internal/detect"
	"failstutter/internal/device"
	"failstutter/internal/sim"
	"failstutter/internal/spec"
	"failstutter/internal/stats"
)

// layerRounds is the fewest rounds of (plain, hooked, trace-flipped) ops
// the layer run makes, however short its time.
const layerRounds = 3

// layerRun measures host time layer by layer. A first hooked op fixes
// the reference digest at seeds without a committed one. Then it makes
// rounds of three ops until the time is up: the plain end-to-end op (for
// the hook overhead and the Go runtime's GC figures), the op with the
// barrier-profile hook and per-experiment timers, and the op with the
// trace layer flipped (for the tracing tax). Last it times each layer's
// exported functions directly, prints the ledger, and returns every
// per-layer metric.
func layerRun(w *workload, c *checker, seed uint64, seconds float64) map[string]metric {
	c.op(seed, opts{kernel: &kernelTally{}})

	var plain, hooked, traceOn, traceOff []float64
	var windowS, deliverS, hookS, outsideS []float64
	var gcCycles uint32
	var gcPause uint64
	last := &kernelTally{}
	var spans opOut
	expWall := map[string][]float64{}
	start := time.Now()
	for round := 0; round < layerRounds || time.Since(start).Seconds() < seconds; round++ {
		if r := c.op(seed, opts{}); r.err == nil {
			plain = append(plain, r.wall.Seconds())
			gcCycles += r.gcCycles
			gcPause += r.gcPauseNs
			addTraceSample(r, &traceOn, &traceOff, &spans)
		}

		tally := &kernelTally{}
		walls := map[string]time.Duration{}
		if r := c.op(seed, opts{kernel: tally, expWall: walls}); r.err == nil {
			hooked = append(hooked, r.wall.Seconds())
			st := tally.st
			windowS = append(windowS, float64(st.WindowNanos)/1e9)
			deliverS = append(deliverS, float64(st.DeliverNanos)/1e9)
			hookS = append(hookS, float64(st.SweepNanos)/1e9)
			kernel := float64(st.WindowNanos+st.DeliverNanos+st.SweepNanos) / 1e9
			outsideS = append(outsideS, r.wall.Seconds()*float64(w.parallel)-kernel)
			for id, d := range walls {
				expWall[id] = append(expWall[id], d.Seconds())
			}
			last = tally
		}

		if r := c.op(seed, opts{flipTrace: true}); r.err == nil {
			addTraceSample(r, &traceOn, &traceOff, &spans)
		}
	}

	d := runMicros()
	st := last.st
	nh := len(hooked)
	r := &report{m: map[string]metric{}, n: map[string]int{}}
	r.add("sim.window_s", median(windowS), "s", nh)
	r.add("sim.windows", float64(st.Windows), "count", nh)
	r.add("sim.solo_windows_frac", ratio(float64(st.SoloWindows), float64(st.Windows)), "ratio", nh)
	r.add("sim.events_per_window", ratio(float64(st.Fired), float64(st.Windows)), "events", nh)
	r.add("sim.deliver_s", median(deliverS), "s", nh)
	r.add("sim.delivered", float64(st.Delivered), "count", nh)
	r.add("sim.barrier_hook_s", median(hookS), "s", nh)
	r.add("sim.shard_imbalance", imbalance(last.perShard), "ratio", nh)
	r.add("sim.fired", float64(st.Fired), "count", nh)
	r.add("exp.outside_kernel_s", median(outsideS), "s", nh)
	r.add("trace.spans_recorded", float64(spans.spansRecorded), "count", len(traceOn))
	r.add("trace.spans_retained", float64(spans.spansRetained), "count", len(traceOn))
	r.add("trace.tax", ratio(median(traceOn), median(traceOff)), "ratio", min(len(traceOn), len(traceOff)))
	// An op may finish below the GC's first heap goal, so these are
	// totals over the plain ops rather than medians.
	r.add("runtime.gc_cycles_per_op", ratio(float64(gcCycles), float64(len(plain))), "count", len(plain))
	r.add("runtime.gc_pause_frac", ratio(float64(gcPause)/1e9, sum(plain)), "ratio", len(plain))
	r.add("ledger.hook_overhead", ratio(median(hooked), median(plain)), "ratio", min(nh, len(plain)))
	d.report(r)
	printLedger(w, seed, r, ledgerInput{
		plain: plain, hooked: hooked, expWall: expWall, kernel: last, micros: d,
	})
	return r.m
}

// report collects per-layer metrics with their sample counts.
type report struct {
	m map[string]metric
	n map[string]int
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.m[name] = metric{v, unit}
	r.n[name] = n
}

// addTraceSample files an op's wall time under the trace layer's state
// and keeps the span counts of an op that traced.
func addTraceSample(r checked, on, off *[]float64, spans *opOut) {
	if r.out.traced {
		*on = append(*on, r.wall.Seconds())
		*spans = r.out
		return
	}
	*off = append(*off, r.wall.Seconds())
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// imbalance is the max/mean of per-shard fired events.
func imbalance(perShard []uint64) float64 {
	var sum, top uint64
	for _, n := range perShard {
		sum += n
		top = max(top, n)
	}
	return ratio(float64(top)*float64(len(perShard)), float64(sum))
}

// microStat is one layer microbenchmark's result: the median over
// microRepeats testing.Benchmark runs of ns/op, with that run's allocs/op
// and B/op.
type microStat struct {
	ns, allocs, bytes float64
	n                 int // testing.Benchmark runs
}

// microRepeats is how many times each microbenchmark runs; microTime is
// the benchmark time of one run.
const (
	microRepeats = 3
	microTime    = "200ms"
)

func runMicro(f func(b *testing.B)) microStat {
	var runs []testing.BenchmarkResult
	for i := 0; i < microRepeats; i++ {
		runs = append(runs, testing.Benchmark(f))
	}
	nsOf := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	sort.Slice(runs, func(i, j int) bool { return nsOf(runs[i]) < nsOf(runs[j]) })
	mid := runs[len(runs)/2]
	return microStat{
		ns: nsOf(mid), allocs: float64(mid.AllocsPerOp()), bytes: float64(mid.AllocedBytesPerOp()), n: len(runs),
	}
}

// micros holds the per-layer microbenchmark results.
type micros struct {
	schedule, station, window, disk microStat
	// sweep is one observe+classify sweep over sweepMembers members;
	// observeNs and verdictsNs split its time per member.
	sweep                 microStat
	observeNs, verdictsNs float64
}

// sweepMembers is the PeerSet size the detect microbenchmark sweeps: the
// fleet workloads' disk count. diskChunk is E06's request size in blocks.
const (
	sweepMembers = fleetDisks
	diskChunk    = 16384
)

func (d micros) report(r *report) {
	r.add("detect.observe_ns_per_member", d.observeNs, "ns", d.sweep.n)
	r.add("detect.verdicts_ns_per_member", d.verdictsNs, "ns", d.sweep.n)
	r.add("device.disk_ns_per_block", d.disk.ns/diskChunk, "ns", d.disk.n)
	for _, x := range []struct {
		name string
		s    microStat
		ns   bool
	}{
		{"sim.schedule_fire", d.schedule, true},
		{"sim.station", d.station, true},
		{"stats.window_observe_median", d.window, true},
		{"detect.sweep", d.sweep, false},
		{"device.disk_read", d.disk, false},
	} {
		if x.ns {
			r.add(x.name+"_ns", x.s.ns, "ns", x.s.n)
		}
		r.add(x.name+"_allocs", x.s.allocs, "count", x.s.n)
		r.add(x.name+"_bytes", x.s.bytes, "B", x.s.n)
	}
}

// runMicros times each layer's exported functions through
// testing.Benchmark. Each microbenchmark mirrors one of the repository's
// Go benchmarks (test files cannot be imported) or, for the disk, E06's
// access pattern.
func runMicros() micros {
	if err := flag.Set("test.benchtime", microTime); err != nil {
		fatal(err)
	}
	var d micros
	// BenchmarkScheduleAndFire: schedule one event that later fires.
	d.schedule = runMicro(func(b *testing.B) {
		s := sim.New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.After(1, func() {})
			if s.Pending() > 1024 {
				s.Run()
			}
		}
		s.Run()
	})
	// BenchmarkStationPipeline: a deep FCFS queue draining end to end.
	d.station = runMicro(func(b *testing.B) {
		s := sim.New()
		st := sim.NewStation(s, "bench", 1e6)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.SubmitFunc(1, nil)
			if st.QueueLen() >= 4096 {
				s.Run()
			}
		}
		s.Run()
	})
	// BenchmarkWindowObserveMedian: a 64-sample window's observe,
	// median and tail quantile.
	d.window = runMicro(func(b *testing.B) {
		win := stats.NewWindow(64)
		for i := 0; i < 64; i++ {
			win.Observe(float64(i % 17))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			win.Observe(float64(i % 13))
			_ = win.Median()
			_ = win.Quantile(0.95)
		}
	})
	d.sweep, d.observeNs, d.verdictsNs = sweepMicro()
	// E06's chain disks: sequential 16384-block reads on a flat disk,
	// wrapping at the end of the platter.
	d.disk = runMicro(func(b *testing.B) {
		s := sim.New()
		disk := device.MustDisk(s, device.DiskParams{
			Name: "chain", CapacityBlocks: 1 << 24, BlockBytes: 4096,
			Zones:    []device.Zone{{CapacityFrac: 1, Bandwidth: 5.5e6}},
			SeekTime: 0.002, AgingFactor: 1,
		})
		block := int64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if block+diskChunk > disk.Params().CapacityBlocks {
				block = 0
			}
			disk.Read(block, diskChunk, nil)
			block += diskChunk
			if disk.Pending() >= 64 {
				s.Run()
			}
		}
		s.Run()
	})
	return d
}

// sweepMicro mirrors BenchmarkPeerSetParallelSweep at the fleet's size,
// on a sim.WorkerPool as wide as the fleet's sweep: one op is a full
// observe-then-classify sweep with one straggler per thousand members.
// The PeerSet is built once; every op advances its clock.
func sweepMicro() (microStat, float64, float64) {
	pool := sim.NewWorkerPool(runtime.NumCPU())
	defer pool.Close()
	p := detect.NewPeerSet(detect.PeerConfig{WindowSamples: 4, Threshold: 0.7, MinPeers: 4})
	for i := 0; i < sweepMembers; i++ {
		p.Register(fmt.Sprintf("disk%07d", i))
	}
	rates := make([]float64, sweepMembers)
	verdicts := make([]spec.Verdict, sweepMembers)
	tick := 0
	fill := func() {
		for i := range rates {
			rates[i] = 100 + float64((i+tick)%13)
			if i%1000 == 0 {
				rates[i] = 5
			}
		}
	}
	for ; tick < 4; tick++ {
		fill()
		p.SweepObserve(pool, float64(tick), rates)
	}
	// The phase split averages over every sweep the microbenchmark makes.
	var observe, classify time.Duration
	var ops int
	stat := runMicro(func(b *testing.B) {
		ops += b.N
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			fill()
			b.StartTimer()
			now := float64(tick)
			tick++
			t0 := time.Now()
			p.SweepObserve(pool, now, rates)
			t1 := time.Now()
			if p.SweepVerdicts(pool, now, verdicts) == 0 {
				b.Fatal("sweep flagged nothing; straggler injection broken")
			}
			observe += t1.Sub(t0)
			classify += time.Since(t1)
		}
	})
	per := float64(ops) * sweepMembers
	return stat, float64(observe.Nanoseconds()) / per, float64(classify.Nanoseconds()) / per
}
