package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"failstutter/internal/experiments"
	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// fleetDisks and fleetTicks size the fleet workloads: E32's scenario at
// 2^17 disks, the sharded kernel's few-huge-windows regime.
const (
	fleetDisks = 1 << 17
	fleetTicks = 12
)

// planeIDs are the experiments that run the switch fabric and the
// cluster plane on the sharded kernel: the small-window regime.
var planeIDs = []string{"E10", "E11", "E12", "E14", "E15", "E23", "E24", "E29"}

// opts selects the variant of a workload's op. The zero value is the
// end-to-end op as users run it.
type opts struct {
	// kernel, when non-nil, installs the barrier-profile hook and sums
	// every sharded run's profile into it.
	kernel *kernelTally
	// flipTrace runs the op with the trace layer in the opposite state
	// from the end-to-end op: on for fleet, planes and suite-quick, off
	// for fleet-telemetry.
	flipTrace bool
	// expWall, when non-nil, receives each experiment's wall time, keyed
	// by id (planes and suite-quick only).
	expWall map[string]time.Duration
}

// opOut is what one op leaves behind. It is hashed after the timer stops.
type opOut struct {
	tables []*experiments.Table
	fleet  *experiments.FleetResult
	// traced reports whether the trace layer was on; spansRecorded and
	// spansRetained are the op's Tracer.Recorded and Tracer.Len totals.
	traced        bool
	spansRecorded uint64
	spansRetained uint64
}

// digest hashes the op's whole result: every table's text and CSV
// (rows, notes and metrics), or every FleetResult field.
func (o opOut) digest() string {
	h := sha256.New()
	if o.fleet != nil {
		b, err := json.Marshal(o.fleet)
		if err != nil {
			panic(err)
		}
		h.Write(b)
	}
	for _, t := range o.tables {
		h.Write([]byte(t.Format()))
		h.Write([]byte(t.CSV()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// valid checks the invariants every correct result holds at any seed,
// on top of the digest comparison.
func (o opOut) valid(w *workload) error {
	if o.fleet != nil {
		r := o.fleet
		switch {
		case r.Events == 0:
			return fmt.Errorf("fleet executed no events")
		case len(r.FlaggedPerSweep) != fleetTicks:
			return fmt.Errorf("fleet swept %d times, want %d", len(r.FlaggedPerSweep), fleetTicks)
		case r.DetectedStutter > r.InjectedStutter || r.DetectedFail > r.InjectedFail:
			return fmt.Errorf("fleet detected more faults than it injected")
		}
		return nil
	}
	if len(o.tables) != len(w.ids) {
		return fmt.Errorf("%d tables, want %d", len(o.tables), len(w.ids))
	}
	for i, t := range o.tables {
		if t == nil || t.ID != w.ids[i] || len(t.Rows) == 0 {
			return fmt.Errorf("table %d is missing or empty, want %s", i, w.ids[i])
		}
	}
	return nil
}

// kernelTally sums the barrier profiles of every sharded run in one op.
// Experiments may report from several goroutines, so it locks.
type kernelTally struct {
	mu       sync.Mutex
	st       sim.BarrierStats
	perShard []uint64
}

func (k *kernelTally) observe(st sim.BarrierStats, perShard []uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.st.Windows += st.Windows
	k.st.Fired += st.Fired
	k.st.Delivered += st.Delivered
	k.st.SoloWindows += st.SoloWindows
	k.st.WindowNanos += st.WindowNanos
	k.st.DeliverNanos += st.DeliverNanos
	k.st.SweepNanos += st.SweepNanos
	for len(k.perShard) < len(perShard) {
		k.perShard = append(k.perShard, 0)
	}
	for i, n := range perShard {
		k.perShard[i] += n
	}
}

// workload is one benchmark input: an op over the program's exported API
// plus the parallelism it runs at.
type workload struct {
	name string
	// shards, sweepWorkers and parallel are the op's kernel shards,
	// barrier sweep workers and concurrently running experiments.
	shards, sweepWorkers, parallel int
	// ids lists the experiments a table-producing op runs, in order.
	ids []string
	run func(seed uint64, o opts) opOut
}

// threads is the most OS threads the op keeps busy at once: each of the
// parallel experiments runs shards windows or sweepWorkers sweeps.
func (w *workload) threads() int {
	return w.parallel * max(w.shards, w.sweepWorkers)
}

// newWorkload builds the named workload with nproc-wide parallelism.
func newWorkload(name string, nproc int) (*workload, error) {
	switch name {
	case "fleet", "fleet-telemetry":
		w := &workload{name: name, shards: nproc, sweepWorkers: nproc, parallel: 1}
		telemetry := name == "fleet-telemetry"
		w.run = func(seed uint64, o opts) opOut {
			return runFleet(seed, nproc, telemetry != o.flipTrace, o.kernel)
		}
		return w, nil
	case "planes":
		w := &workload{name: name, shards: nproc, sweepWorkers: nproc, parallel: 1, ids: planeIDs}
		w.run = func(seed uint64, o opts) opOut {
			cfg := experiments.Config{Seed: seed, Quick: true, Shards: nproc, SweepWorkers: nproc}
			return runSuite(w.ids, cfg, 1, o)
		}
		return w, nil
	case "suite-quick":
		w := &workload{name: name, shards: 1, sweepWorkers: 1, parallel: nproc, ids: experiments.IDs()}
		w.run = func(seed uint64, o opts) opOut {
			cfg := experiments.Config{Seed: seed, Quick: true, Shards: 1, SweepWorkers: 1}
			if o.kernel == nil && !o.flipTrace && o.expWall == nil {
				// The end-to-end op is what `fstutter all -quick
				// -parallel <nproc> -shards 1 -sweep-workers 1` runs.
				tables := experiments.RunAll(cfg, nproc)
				return opOut{tables: tables}
			}
			return runSuite(w.ids, cfg, nproc, o)
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fleet, fleet-telemetry, planes or suite-quick)", name)
}

// runFleet runs E32's scenario at benchmark scale, load-balanced, with
// the trace layer (a Tracer under the fleet flight recorder, plus a
// Registry) on when traced is set.
func runFleet(seed uint64, nproc int, traced bool, kernel *kernelTally) opOut {
	p := experiments.FleetParams{
		Disks: fleetDisks, Ticks: fleetTicks, Seed: seed,
		Shards: nproc, SweepWorkers: nproc, Rebalance: true,
	}
	if kernel != nil {
		p.ObserveBarrier = kernel.observe
	}
	var tel *experiments.Telemetry
	if traced {
		rc := experiments.FleetRecorder(seed)
		tel = &experiments.Telemetry{Tracer: trace.NewTracer(), Metrics: trace.NewRegistry(), Recorder: &rc}
		tel.Tracer.SetFlightRecorder(rc)
		p.Telemetry = tel
	}
	r := experiments.RunFleetScenario(p)
	out := opOut{fleet: &r, traced: traced}
	if tel != nil {
		out.spansRecorded = tel.Tracer.Recorded()
		out.spansRetained = uint64(tel.Tracer.Len())
	}
	return out
}

// runSuite runs the experiments ids on parallel workers that pull the
// next index from a shared counter, as experiments.RunAll does, while
// applying the variant's hooks and timing each experiment.
func runSuite(ids []string, cfg experiments.Config, parallel int, o opts) opOut {
	list := make([]experiments.Experiment, len(ids))
	for i, id := range ids {
		e, err := experiments.Get(id)
		if err != nil {
			panic(err)
		}
		list[i] = e
	}
	if o.kernel != nil {
		cfg.ObserveBarrier = func(_ string, st sim.BarrierStats, perShard []uint64) {
			o.kernel.observe(st, perShard)
		}
	}
	cfg.Trace = o.flipTrace
	tables := make([]*experiments.Table, len(list))
	wall := make([]time.Duration, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	var failure atomic.Value
	for w := 0; w < min(parallel, len(list)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panicking experiment stops this worker; the panic is
			// raised again on the caller, where the op's check records it.
			defer func() {
				if r := recover(); r != nil {
					failure.CompareAndSwap(nil, fmt.Sprint(r))
				}
			}()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(list) {
					return
				}
				t0 := time.Now()
				tables[n] = list[n].Run(cfg)
				wall[n] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	if r := failure.Load(); r != nil {
		panic(r)
	}
	out := opOut{tables: tables, traced: cfg.Trace}
	for i, t := range tables {
		if o.expWall != nil {
			o.expWall[ids[i]] = wall[i]
		}
		if t != nil && t.Telemetry != nil {
			out.spansRecorded += t.Telemetry.Tracer.Recorded()
			out.spansRetained += uint64(t.Telemetry.Tracer.Len())
		}
	}
	return out
}
