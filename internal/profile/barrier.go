package profile

import (
	"bufio"
	"fmt"
	"io"

	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// BarrierSchema identifies the barrier cost report format.
const BarrierSchema = "fstutter-barrier/1"

// BarrierRun is one sharded-kernel run's barrier cost profile: how many
// safe windows the run took, how much work they held, how much of that
// work crossed shards, and how evenly it spread. Everything here is
// byte-deterministic for a fixed seed and shard count except the
// nanosecond fields, which are wall-clock and excluded from the JSON
// artifact.
type BarrierRun struct {
	// Run labels the sub-run within its experiment ("gc-adaptive",
	// "fleet-2048", "reissue-x3").
	Run string
	// Shards is the kernel's shard count.
	Shards int
	// BarrierStats is the kernel's own accounting: windows, fired,
	// delivered, solo and largest windows, and the wall-clock split
	// between the window region (WindowNanos) and the barrier — its
	// cross-shard merge (DeliverNanos, the merge wall) and its hook
	// (SweepNanos, for the fleet the parallel PeerSet sweep).
	sim.BarrierStats
	// PerShardFired is each shard's executed-event count — the imbalance
	// axis: a shard far above the mean is the parallel region's critical
	// path.
	PerShardFired []uint64
}

// barrierNanos is the barrier's wall-clock: its merge plus its hook.
func (r *BarrierRun) barrierNanos() int64 { return r.DeliverNanos + r.SweepNanos }

// EventsPerWindow is the mean window payload — the quantity the batched
// delivery protocol exists to amortize the barrier handshake over.
func (r *BarrierRun) EventsPerWindow() float64 {
	if r.Windows == 0 {
		return 0
	}
	return float64(r.Fired) / float64(r.Windows)
}

// CrossShardFrac is the fraction of executed events that arrived over a
// barrier from another shard.
func (r *BarrierRun) CrossShardFrac() float64 {
	if r.Fired == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Fired)
}

// Imbalance is the hottest shard's event count over the per-shard mean:
// 1.0 is perfectly even, N means one shard did N times its fair share.
func (r *BarrierRun) Imbalance() float64 {
	if r.Fired == 0 || len(r.PerShardFired) == 0 {
		return 0
	}
	var max uint64
	for _, f := range r.PerShardFired {
		if f > max {
			max = f
		}
	}
	mean := float64(r.Fired) / float64(len(r.PerShardFired))
	if mean == 0 {
		return 0
	}
	return float64(max) / mean
}

// BarrierFrac is the single-threaded barrier's share of the measured
// wall-clock; zero when the run carried no timing.
func (r *BarrierRun) BarrierFrac() float64 {
	total := r.WindowNanos + r.barrierNanos()
	if total == 0 {
		return 0
	}
	return float64(r.barrierNanos()) / float64(total)
}

// DeliverFrac is the cross-shard merge wall's share of the barrier time;
// SweepFrac is the barrier hook's (the fleet sweep's). Zero when the run
// predates the split or carried no timing.
func (r *BarrierRun) DeliverFrac() float64 {
	if r.barrierNanos() == 0 {
		return 0
	}
	return float64(r.DeliverNanos) / float64(r.barrierNanos())
}

// SweepFrac is the barrier hook's share of the barrier wall-clock.
func (r *BarrierRun) SweepFrac() float64 {
	if r.barrierNanos() == 0 {
		return 0
	}
	return float64(r.SweepNanos) / float64(r.barrierNanos())
}

// BarrierReport is one experiment's barrier cost profile across its
// sub-runs: the per-run answer to "what did the conservative barrier
// cost, and was there parallelism to pay for it?".
type BarrierReport struct {
	Experiment string
	// Meta stamps the run identity (seed, scale, parallelism) into the
	// artifact header; the zero value writes seed 0 and omits the
	// parallelism fields.
	Meta RunMeta
	Runs []BarrierRun
}

// WriteJSON writes the deterministic fields in canonical form — runs in
// execution order, wall-clock nanoseconds omitted — so the artifact
// diffs cleanly across commits.
func (r *BarrierReport) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"schema":`)
	jstr(bw, BarrierSchema)
	r.Meta.writeHeader(bw)
	bw.WriteString(`,"experiment":`)
	jstr(bw, r.Experiment)
	bw.WriteString(`,"runs":[`)
	for i := range r.Runs {
		run := &r.Runs[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n")
		bw.WriteString(`{"run":`)
		jstr(bw, run.Run)
		bw.WriteString(`,"shards":`)
		jint(bw, int64(run.Shards))
		bw.WriteString(`,"windows":`)
		jint(bw, int64(run.Windows))
		bw.WriteString(`,"fired":`)
		jint(bw, int64(run.Fired))
		bw.WriteString(`,"delivered":`)
		jint(bw, int64(run.Delivered))
		bw.WriteString(`,"solo_windows":`)
		jint(bw, int64(run.SoloWindows))
		bw.WriteString(`,"max_window_fired":`)
		jint(bw, int64(run.MaxWindowFired))
		bw.WriteString(`,"events_per_window":`)
		trace.WriteJSONNum(bw, run.EventsPerWindow())
		bw.WriteString(`,"cross_shard_frac":`)
		trace.WriteJSONNum(bw, run.CrossShardFrac())
		bw.WriteString(`,"imbalance":`)
		trace.WriteJSONNum(bw, run.Imbalance())
		bw.WriteString(`,"per_shard_fired":[`)
		for j, f := range run.PerShardFired {
			if j > 0 {
				bw.WriteByte(',')
			}
			jint(bw, int64(f))
		}
		bw.WriteString(`]}`)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// WriteText renders the report as an aligned table, including the
// wall-clock window/barrier split (nondeterministic — stdout only,
// never a committed artifact).
func (r *BarrierReport) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "barrier profile: %s\n", r.Experiment)
	fmt.Fprintf(bw, "  %-24s %6s %9s %9s %6s %6s %6s %9s %7s %7s\n",
		"run", "shards", "windows", "ev/win", "xshard", "imbal", "solo", "barrier%", "merge%", "sweep%")
	for i := range r.Runs {
		run := &r.Runs[i]
		solo := 0.0
		if run.Windows > 0 {
			solo = float64(run.SoloWindows) / float64(run.Windows)
		}
		barrier, merge, sweep := "-", "-", "-"
		if run.WindowNanos+run.barrierNanos() > 0 {
			barrier = fmt.Sprintf("%.1f%%", 100*run.BarrierFrac())
		}
		// merge% and sweep% are shares *of the barrier wall*, not of the
		// whole run: together they show which half of the handshake —
		// cross-shard delivery or the hook's fleet sweep — the barrier
		// spends its time in.
		if run.barrierNanos() > 0 {
			merge = fmt.Sprintf("%.1f%%", 100*run.DeliverFrac())
			sweep = fmt.Sprintf("%.1f%%", 100*run.SweepFrac())
		}
		fmt.Fprintf(bw, "  %-24s %6d %9d %9.1f %5.1f%% %6.2f %5.0f%% %9s %7s %7s\n",
			run.Run, run.Shards, run.Windows, run.EventsPerWindow(),
			100*run.CrossShardFrac(), run.Imbalance(), 100*solo, barrier, merge, sweep)
	}
	return bw.Flush()
}
