package oracle

import (
	"fmt"
	"testing"

	"failstutter/internal/cluster"
	"failstutter/internal/device"
	"failstutter/internal/raid"
	"failstutter/internal/sim"
)

// testArray builds a mirror-pair array of single-zone disks at the given
// per-pair bandwidths, mirroring the experiments' scenario substrate.
func testArray(s *sim.Simulator, rates []float64) *raid.Array {
	pairs := make([]*raid.MirrorPair, len(rates))
	for i, rate := range rates {
		mk := func(side string) *device.Disk {
			d, err := device.NewDisk(s, device.DiskParams{
				Name:           fmt.Sprintf("p%d-%s", i, side),
				CapacityBlocks: 1 << 24,
				BlockBytes:     mBlockBytes,
				Zones:          []device.Zone{{CapacityFrac: 1, Bandwidth: rate}},
				SeekTime:       mFlatSeek,
				AgingFactor:    1,
			})
			if err != nil {
				panic(err)
			}
			return d
		}
		pairs[i] = raid.NewMirrorPair(s, i, mk("a"), mk("b"))
	}
	return raid.NewArray(s, pairs, mBlockBytes)
}

// Property (1000 seeds): the fork-join bounds hold in the right direction
// for arbitrary slow-pair rates — throughput never beats N*slowest, and
// the exact makespan model lands within its band.
func TestPropertyForkJoinBounds(t *testing.T) {
	const blocks = 400
	for seed := uint64(0); seed < 1000; seed++ {
		rng := sim.NewRNG(seed)
		slow := rng.Uniform(0.1e6, 1e6)
		rates := []float64{1e6, 1e6, 1e6, slow}
		s := sim.New()
		res, err := raid.WriteAndMeasure(s, testArray(s, rates), raid.StaticEqual{}, blocks)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ceiling := Row{Predicted: 4 * slow, Observed: res.Throughput, Bound: Upper, Tol: 0}
		if !ceiling.Pass() {
			t.Fatalf("seed %d: throughput %g beats N*b ceiling %g", seed, res.Throughput, 4*slow)
		}
		span := mFlatSeek + float64(blocks/4)*mBlockBytes/slow
		exact := Row{
			Predicted: float64(blocks) * mBlockBytes / span,
			Observed:  res.Throughput, Bound: TwoSided, Tol: 0.005,
		}
		if !exact.Pass() {
			t.Fatalf("seed %d: throughput %g off exact model %g (residual %+g)",
				seed, res.Throughput, exact.Predicted, exact.Residual())
		}
	}
}

// clusterPool builds a worker pool on the barrier engine exactly as the
// scored cluster experiments (E23, E29) do: the work-unit quantum is both
// the pool's quantum and the coordinator's lookahead.
func clusterPool(workers int) *cluster.Pool {
	return cluster.NewPool(sim.NewSharded(1, mQuantum), workers, mQuantum)
}

// Property (1000 seeds): the DHW-style waste ledger holds for arbitrary
// mid-job degradations — duplicates never exceed the clone budget, wasted
// work never exceeds one task's units per duplicate, and the makespan
// never beats the perfect-parallelism floor.
func TestPropertyDHWWasteBounds(t *testing.T) {
	const (
		nTasks  = 12
		units   = 64
		workers = 4
	)
	scheds := []cluster.Scheduler{
		cluster.Hedged{MaxClones: 1},
		cluster.Reissue{TimeoutFactor: 3, MaxClones: 1},
	}
	for seed := uint64(0); seed < 1000; seed++ {
		rng := sim.NewRNG(seed)
		at := rng.Uniform(0, float64(nTasks*units)*mQuantum/workers)
		factor := rng.Uniform(0.01, 0.5)
		sched := scheds[seed%2]
		p := clusterPool(workers)
		p.SetSpeedAt(0, at, factor)
		rep := sched.Run(p, cluster.UniformTasks(nTasks, units))

		if row := (Row{Predicted: nTasks, Observed: float64(rep.Duplicates), Bound: Upper, Tol: 0}); !row.Pass() {
			t.Fatalf("seed %d %s: %d duplicates beyond the clone budget", seed, rep.Scheduler, rep.Duplicates)
		}
		wasteCap := float64(rep.Duplicates) * units
		if row := (Row{Predicted: wasteCap, Observed: rep.WastedUnits, Bound: Upper, Tol: 1e-9}); !row.Pass() {
			t.Fatalf("seed %d %s: wasted %g > %g (dups %d)", seed, rep.Scheduler, rep.WastedUnits, wasteCap, rep.Duplicates)
		}
		floor := float64(nTasks*units) / workers * mQuantum
		if row := (Row{Predicted: floor, Observed: float64(rep.Makespan), Bound: Lower, Tol: 1e-9}); !row.Pass() {
			t.Fatalf("seed %d %s: makespan %g beats the %g floor", seed, rep.Scheduler, rep.Makespan, floor)
		}
	}
}

// Property (1000 seeds): the BSP superstep bounds hold for arbitrary slow
// speeds — static rounds pay exactly 1/speed, elastic rounds stay inside
// the list-scheduling bracket widened by the engine's per-pull dispatch
// skew.
func TestPropertyBSPBounds(t *testing.T) {
	const (
		rounds  = 2
		v       = 256
		grain   = 16
		workers = 4
	)
	for seed := uint64(0); seed < 1000; seed++ {
		rng := sim.NewRNG(seed)
		speed := rng.Uniform(0.05, 1)

		run := func(elastic bool) float64 {
			p := clusterPool(workers)
			p.Workers()[0].SetSpeed(speed)
			rep := cluster.RunBSP(p, cluster.BSPParams{
				Rounds: rounds, UnitsPerWorkerRound: v, Elastic: elastic, Grain: grain,
			})
			return float64(rep.Makespan)
		}

		static := run(false)
		pred := rounds * v * mQuantum / speed
		if row := (Row{Predicted: pred, Observed: static, Bound: TwoSided, Tol: 0.01}); !row.Pass() {
			t.Fatalf("seed %d: static makespan %g, want %g (speed %g)", seed, static, pred, speed)
		}

		elastic := run(true)
		sTotal := speed + workers - 1
		lower := rounds * workers * v * mQuantum / sTotal
		// The list-scheduling bound, plus the barrier engine's dispatch
		// skew written out: every grain pull lands at the window horizon,
		// up to one lookahead L after the completion that freed its worker
		// — at most workers*v/grain gaps per round, which the pool's
		// total speed absorbs — and each later round starts up to L after
		// its predecessor's barrier clears.
		const lookahead = mQuantum
		pulls := float64(workers * v / grain)
		skew := rounds*pulls*lookahead/sTotal + (rounds-1)*lookahead
		upper := rounds*(workers*v*mQuantum/sTotal+grain*mQuantum/speed) + skew
		if row := (Row{Predicted: lower, Observed: elastic, Bound: Lower, Tol: 0.005}); !row.Pass() {
			t.Fatalf("seed %d: elastic makespan %g beats capacity floor %g (speed %g)", seed, elastic, lower, speed)
		}
		if row := (Row{Predicted: upper, Observed: elastic, Bound: Upper, Tol: 0.01}); !row.Pass() {
			t.Fatalf("seed %d: elastic makespan %g above list bound %g (speed %g)", seed, elastic, upper, speed)
		}
	}
}
