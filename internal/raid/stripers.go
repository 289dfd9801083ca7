package raid

import (
	"fmt"

	"failstutter/internal/core"
	"failstutter/internal/trace"
)

// job tracks a striped write in progress, shared by all stripers.
type job struct {
	a         *Array
	name      string
	total     int64
	start     float64
	completed int64
	perPair   []int64
	reissued  int64
	onDone    func(Result)
	finished  bool
	span      trace.SpanID
}

func newJob(a *Array, name string, total int64, onDone func(Result)) *job {
	j := &job{
		a:       a,
		name:    name,
		total:   total,
		start:   a.s.Now(),
		perPair: make([]int64, len(a.pairs)),
		onDone:  onDone,
	}
	if a.tracer != nil {
		j.span = a.tracer.BeginArg(a.track, "job:"+name, "striper", 0, j.start, total)
	}
	return j
}

func (j *job) blockDone(pair int) {
	j.completed++
	j.perPair[pair]++
	if j.completed == j.total && !j.finished {
		j.finished = true
		if j.a.tracer != nil {
			j.a.tracer.End(j.span, j.a.s.Now())
		}
		makespan := j.a.s.Now() - j.start
		thr := 0.0
		if makespan > 0 {
			thr = float64(j.total) * j.a.blockBytes / makespan
		}
		j.onDone(Result{
			Policy:      j.name,
			Blocks:      j.total,
			Makespan:    makespan,
			Throughput:  thr,
			PerPair:     j.perPair,
			Bookkeeping: j.a.BookkeepingEntries(),
			Reissued:    j.reissued,
		})
	}
}

// StaticEqual is the paper's first scenario: the fail-stop design. Every
// pair receives exactly D/N blocks, because "since performance faults are
// not considered in the design, each pair is given the same number of
// blocks to write". A single slow pair drags the whole job: throughput
// N*b.
type StaticEqual struct{}

// Name implements Striper.
func (StaticEqual) Name() string { return "static-equal" }

// Run implements Striper.
func (StaticEqual) Run(a *Array, blocks int64, onDone func(Result)) {
	weights := make([]float64, len(a.pairs))
	for i := range weights {
		weights[i] = 1
	}
	shares := core.ProportionalShares(blocks, weights)
	runFixedShares(a, "static-equal", shares, blocks, onDone)
}

// GaugedProportional is the paper's second scenario: gauge each pair once
// "at installation", then stripe proportionally to the measured ratios.
// Correct for static performance faults; broken by any post-gauge drift.
type GaugedProportional struct {
	// ProbeBlocks is the size of the install-time microbenchmark per pair.
	ProbeBlocks int64
}

// Name implements Striper.
func (GaugedProportional) Name() string { return "gauged-proportional" }

// Run implements Striper. Gauging runs (and consumes simulated time)
// before the measured window opens.
func (g GaugedProportional) Run(a *Array, blocks int64, onDone func(Result)) {
	probe := g.ProbeBlocks
	if probe <= 0 {
		probe = 16
	}
	rates := a.GaugePairRates(probe)
	shares := core.MinMakespanAssign(blocks, rates)
	// The stored ratios are this policy's entire bookkeeping.
	for range a.pairs {
		a.recordPlacement(-1)
	}
	runFixedShares(a, "gauged-proportional", shares, blocks, onDone)
}

// runFixedShares enqueues a fixed per-pair share up-front. Blocks lost to
// a fully failed pair are not reissued — these are the static designs the
// paper criticizes — so the job simply never completes if a pair dies.
func runFixedShares(a *Array, name string, shares []int64, blocks int64, onDone func(Result)) {
	j := newJob(a, name, blocks, onDone)
	for i, n := range shares {
		i := i
		p := a.pairs[i]
		for k := int64(0); k < n; k++ {
			p.WriteBlockSpan(j.span, func() { j.blockDone(i) }, nil)
		}
	}
}

// AdaptivePull is the paper's third scenario in work-conserving form:
// instead of precomputing ratios, the controller keeps a small constant
// number of blocks outstanding per pair and hands each pair a new block
// the moment it completes one. Placement therefore tracks each pair's
// *current* rate with no explicit gauging, delivering the full available
// bandwidth under arbitrary rate changes; the block map records every
// placement — the "increased bookkeeping" the paper accepts in exchange.
// Blocks stranded on a failed pair are reissued to the survivors.
type AdaptivePull struct {
	// Depth is the per-pair outstanding-block window (default 2). Deeper
	// windows amortize issue latency but strand more work on a stalled
	// pair.
	Depth int
}

// Name implements Striper.
func (p AdaptivePull) Name() string { return fmt.Sprintf("adaptive-pull(depth=%d)", p.depth()) }

func (p AdaptivePull) depth() int {
	if p.Depth <= 0 {
		return 2
	}
	return p.Depth
}

// Run implements Striper.
func (p AdaptivePull) Run(a *Array, blocks int64, onDone func(Result)) {
	depth := p.depth()
	j := newJob(a, p.Name(), blocks, onDone)
	remaining := blocks
	outstanding := make([]int64, len(a.pairs))

	var pump func()
	issue := func(i int) {
		pair := a.pairs[i]
		remaining--
		outstanding[i]++
		a.recordPlacement(i)
		pair.WriteBlockSpan(
			j.span,
			func() {
				outstanding[i]--
				j.blockDone(i)
				pump()
			},
			func() {
				outstanding[i]--
				remaining++
				j.reissued++
				pump()
			},
		)
	}
	pump = func() {
		for i, pair := range a.pairs {
			if pair.Failed() {
				continue
			}
			for outstanding[i] < int64(depth) && remaining > 0 {
				issue(i)
			}
		}
	}
	pump()
}

// AdaptiveWave is the paper's third scenario in its literal form:
// "continually gauge performance and write blocks across mirror-pairs in
// proportion to their current rates". Every Interval seconds the
// controller measures each pair's completions since the previous wave and
// dispatches the next WaveBlocks proportionally. The re-gauge interval is
// ablated in experiment A2.
type AdaptiveWave struct {
	// Interval is the re-gauge period in seconds.
	Interval float64
	// WaveBlocks is how many blocks each wave dispatches.
	WaveBlocks int64
}

// Name implements Striper.
func (w AdaptiveWave) Name() string {
	return fmt.Sprintf("adaptive-wave(interval=%g)", w.Interval)
}

// Run implements Striper.
func (w AdaptiveWave) Run(a *Array, blocks int64, onDone func(Result)) {
	if w.Interval <= 0 || w.WaveBlocks <= 0 {
		panic("raid: AdaptiveWave requires positive Interval and WaveBlocks")
	}
	j := newJob(a, w.Name(), blocks, onDone)
	undispatched := blocks
	prev := a.pairCompletions()
	lastRates := make([]float64, len(a.pairs))

	dispatch := func(shares []int64) {
		for i, n := range shares {
			i := i
			pair := a.pairs[i]
			for k := int64(0); k < n; k++ {
				undispatched--
				a.recordPlacement(i)
				pair.WriteBlockSpan(
					j.span,
					func() { j.blockDone(i) },
					func() {
						undispatched++
						j.reissued++
					},
				)
			}
		}
	}

	// First wave: no measurements yet, split evenly.
	first := min(w.WaveBlocks, undispatched)
	even := make([]float64, len(a.pairs))
	for i := range even {
		even[i] = 1
	}
	dispatch(core.ProportionalShares(first, even))

	var tick func()
	tick = func() {
		if j.finished {
			return
		}
		cur := a.pairCompletions()
		weights := make([]float64, len(a.pairs))
		maxRate := 0.0
		for i := range weights {
			rate := float64(cur[i]-prev[i]) / w.Interval
			if rate == 0 && lastRates[i] > 0 && !a.pairs[i].Failed() {
				// An idle-but-healthy pair keeps its last known rate so a
				// single empty interval cannot starve it forever.
				rate = lastRates[i]
			}
			lastRates[i] = rate
			weights[i] = rate
			if rate > maxRate {
				maxRate = rate
			}
			if a.pairs[i].Failed() {
				weights[i] = 0
			}
		}
		// Floor live pairs at a sliver of the leader so a slow pair still
		// receives probes and can demonstrate recovery.
		for i := range weights {
			if !a.pairs[i].Failed() && weights[i] < 0.02*maxRate {
				weights[i] = 0.02 * maxRate
			}
		}
		prev = cur
		n := min(w.WaveBlocks, undispatched)
		if n > 0 {
			allZero := true
			for _, wt := range weights {
				if wt > 0 {
					allZero = false
					break
				}
			}
			if allZero {
				dispatch(core.ProportionalShares(n, even))
			} else {
				dispatch(core.MinMakespanAssign(n, weights))
			}
		}
		a.s.After(w.Interval, tick)
	}
	a.s.After(w.Interval, tick)
}
