package cluster

import (
	"fmt"
	"math"

	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// BSPParams configures a bulk-synchronous parallel computation: Rounds
// supersteps, each ending in a barrier. This is the "static use of
// parallelism" the paper's introduction singles out: because every round
// waits for the slowest participant, a single performance-faulty node
// taxes every round of the whole machine.
type BSPParams struct {
	// Rounds is the number of barrier-separated supersteps.
	Rounds int
	// UnitsPerWorkerRound is each worker's share of one round's work.
	UnitsPerWorkerRound int
	// Elastic, when true, pools each round's work and lets workers pull
	// it in Grain-sized pieces: the barrier remains (the algorithm
	// requires it) but within a round fast workers absorb a straggler's
	// share, so the straggler delays the barrier only by its final grain.
	Elastic bool
	// Grain is the pull granularity for the elastic variant (default 20
	// units).
	Grain int
}

// BSPReport summarizes a BSP run.
type BSPReport struct {
	Params   BSPParams
	Makespan sim.Duration
	// PerWorkerUnits is the work each worker actually executed.
	PerWorkerUnits []float64
}

func (r BSPReport) String() string {
	kind := "static"
	if r.Params.Elastic {
		kind = "elastic"
	}
	return fmt.Sprintf("bsp(%s): %d rounds in %.3fs", kind, r.Params.Rounds, r.Makespan)
}

// RunBSP executes the computation on the pool's coordinator and returns
// when the final barrier clears. Workers record superstep arrivals
// shard-locally; the coordinator's barrier settles them in (time, worker)
// order — elastic pulls are granted in that order, the placement-invariant
// analogue of completion order — and the next round (or next grain) is
// dispatched at the window horizon. A round therefore ends at the exact
// event time its last worker arrived, while the next begins at most one
// lookahead later; once the final round clears, nothing is dispatched and
// the coordinator drains naturally.
func RunBSP(p *Pool, params BSPParams) BSPReport {
	if params.Rounds < 1 || params.UnitsPerWorkerRound < 1 {
		panic(fmt.Sprintf("cluster: invalid BSP params %+v", params))
	}
	grain := params.Grain
	if grain < 1 {
		grain = 20
	}
	n := p.Size()
	start := p.ss.Now()
	before := snapshotUnits(p)
	comp := newCompletions(p.ss.Shards())

	var (
		round     int
		barrier   int     // workers yet to reach the current round's barrier
		remaining float64 // elastic: pooled units left in the current round
		done      bool
		doneAt    sim.Time
	)

	// Each superstep is one span on the "bsp" track, opened when the round
	// is dispatched and closed at the event time its barrier clears — the
	// span length *is* the straggler tax made visible.
	tr := p.tracer
	var bspTrack trace.TrackID
	var roundSpan trace.SpanID
	if tr != nil {
		bspTrack = tr.Track("bsp")
	}

	// pull takes the next grain from the round's pool, or 0 once it is
	// empty.
	pull := func() float64 {
		g := math.Min(float64(grain), remaining)
		remaining -= g
		return g
	}
	startRoundAt := func(at sim.Time) {
		barrier = n
		if params.Elastic {
			remaining = float64(params.UnitsPerWorkerRound) * float64(n)
		}
		if tr != nil {
			roundSpan = tr.Begin(bspTrack, fmt.Sprintf("superstep-%d", round), "bsp", 0, at)
		}
		for _, w := range p.workers {
			units := float64(params.UnitsPerWorkerRound)
			if params.Elastic {
				if units = pull(); units <= 0 {
					barrier--
					continue
				}
			}
			w.execAt(at, units)
		}
	}
	// arrive settles one worker's barrier arrival at event time at,
	// dispatching the next round (when one remains) at horizon h.
	arrive := func(at, h sim.Time) {
		barrier--
		if barrier != 0 {
			return
		}
		if tr != nil {
			tr.End(roundSpan, at)
		}
		round++
		if round == params.Rounds {
			done = true
			doneAt = at
			return
		}
		startRoundAt(h)
	}
	settle := func(h sim.Time) {
		for _, rec := range comp.drain() {
			// Elastic workers leave the barrier only once the round's pool
			// is empty.
			if params.Elastic && remaining > 0 {
				p.workers[rec.w].execAt(h, pull())
				continue
			}
			arrive(rec.at, h)
		}
	}

	p.drive(comp.record, settle, func() { startRoundAt(start) })
	if !done {
		panic(fmt.Sprintf("cluster: BSP stalled in round %d with %d workers short of the barrier", round, barrier))
	}
	return BSPReport{
		Params:         params,
		Makespan:       doneAt - start,
		PerWorkerUnits: perWorkerUnits(p, before),
	}
}
