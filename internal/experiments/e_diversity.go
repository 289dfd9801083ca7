package experiments

import (
	"fmt"

	"failstutter/internal/faults"
	"failstutter/internal/raid"
	"failstutter/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E30",
		Title: "Design diversity: a belt and suspenders",
		PaperClaim: "by including components of different makes and " +
			"manufacturers, problems that occur when a collection of identical " +
			"components suffer from an identical design flaw are avoided ... " +
			"'a belt and suspenders, not two belts or two suspenders' " +
			"(Section 3.3, reliability)",
		Run: runE30,
	})
	register(Experiment{
		ID:    "A4",
		Title: "Ablation: adaptive pull depth",
		PaperClaim: "deeper outstanding-block windows amortize issue latency " +
			"but strand more work on a stalled pair (design note on scenario 3)",
		Run: runA4,
	})
}

// runE30 builds two four-pair arrays from two disk "vendors" and fires a
// correlated vendor-A firmware fault. In the homogeneous array each pair
// is two vendor-A disks (two belts); in the diverse array each pair mixes
// vendors (belt and suspenders).
func runE30(cfg Config) *Table {
	blocks := scale(cfg, 4000, 20000)
	t := NewTable("E30", "Design diversity",
		"a correlated design flaw takes out every identical component at once",
		"pairing", "fault type", "outcome")

	build := func(diverse bool) (*sim.Simulator, *raid.Array, []*faults.Composite) {
		s := sim.New()
		var vendorA []*faults.Composite
		pairs := make([]*raid.MirrorPair, 4)
		for i := range pairs {
			a := flatDisk(s, fmt.Sprintf("e30-p%d-a", i), 1e6)
			b := flatDisk(s, fmt.Sprintf("e30-p%d-b", i), 1e6)
			// Homogeneous: both members are vendor A. Diverse: member A
			// only.
			vendorA = append(vendorA, a.Composite())
			if !diverse {
				vendorA = append(vendorA, b.Composite())
			}
			pairs[i] = raid.NewMirrorPair(s, i, a, b)
		}
		return s, raid.NewArray(s, pairs, blockBytes), vendorA
	}

	// Fault 1: the vendor-A firmware bug is a performance fault — every
	// vendor-A disk stalls for 5 s at t=2 (a pathological internal
	// scrub). Mirrored WRITES must land on both members, so only the read
	// path can exploit diversity: reads ride the healthy vendor.
	for _, diverse := range []bool{false, true} {
		s, a, vendorA := build(diverse)
		// Lay down data first, then measure a 10 s read phase spanning
		// the stall.
		if _, err := raid.WriteAndMeasure(s, a, raid.StaticEqual{}, blocks); err != nil {
			panic(err)
		}
		start := s.Now()
		for _, c := range vendorA {
			faults.Interval{Start: start + 2, End: start + 7, Factor: 0}.Install(s, c)
		}
		// Closed-loop readers, two outstanding reads per pair.
		var done int64
		for _, p := range a.Pairs() {
			p := p
			next := int64(0)
			var issue func()
			issue = func() {
				if s.Now()-start >= 10 {
					return
				}
				blk := next % (blocks / int64(len(a.Pairs())))
				next++
				// Hedge after 50 ms (~12x the nominal read time): the
				// fail-stutter read path. With diverse pairs the hedge
				// lands on the healthy vendor; with homogeneous pairs it
				// lands on an equally stalled twin.
				p.ReadBlock(blk, 0.05, func(float64) {
					done++
					issue()
				}, nil)
			}
			issue()
			issue()
		}
		s.RunUntil(start + 10)
		label := pairingLabel(diverse)
		readBW := float64(done) * blockBytes / 10
		t.AddRow(label, "correlated 5 s stall",
			fmt.Sprintf("read throughput %s over the stall window", mb(readBW)))
		t.SetMetric("stall_throughput_"+pairingSlug(diverse), readBW)
	}

	// Fault 2: the bug is fatal — every vendor-A disk dies at t=2.
	for _, diverse := range []bool{false, true} {
		s, a, vendorA := build(diverse)
		for _, c := range vendorA {
			faults.CrashAt{At: 2}.Install(s, c)
		}
		res, err := raid.WriteAndMeasure(s, a, raid.AdaptivePull{Depth: 2}, blocks)
		label := pairingLabel(diverse)
		lost := uint64(0)
		for _, p := range a.Pairs() {
			lost += p.BlocksLost()
		}
		switch {
		case err != nil:
			t.AddRow(label, "correlated crash", "DATA LOSS: every pair lost both members")
			t.SetMetric("crash_survived_"+pairingSlug(diverse), 0)
		default:
			t.AddRow(label, "correlated crash",
				fmt.Sprintf("survived on the other vendor (%s)", mb(res.Throughput)))
			t.SetMetric("crash_survived_"+pairingSlug(diverse), 1)
			t.SetMetric("crash_throughput_"+pairingSlug(diverse), res.Throughput)
		}
	}
	t.AddNote("identical fault schedule; only the pairing policy differs")
	return t
}

func pairingSlug(diverse bool) string {
	if diverse {
		return "diverse"
	}
	return "homogeneous"
}

func pairingLabel(diverse bool) string {
	if diverse {
		return "diverse (A+B per pair)"
	}
	return "homogeneous (A+A per pair)"
}

func runA4(cfg Config) *Table {
	blocks := scale(cfg, 4000, 20000)
	t := NewTable("A4", "Ablation: adaptive pull depth",
		"depth trades issue overhead against work stranded on a stalled pair",
		"depth", "static slow pair", "pair stalls 2 s periodically")
	oscillate := func(s *sim.Simulator, a *raid.Array) {
		faults.PeriodicStall{Period: 4, Duration: 2, Factor: 0, Until: 1e6}.
			Install(s, a.Pairs()[0].A.Composite())
	}
	for _, depth := range []int{1, 2, 8, 32} {
		static := runStriper(nil, "", scenarioRates(), blocks, raid.AdaptivePull{Depth: depth}, nil)
		healthy := make([]float64, scenarioPairs)
		for i := range healthy {
			healthy[i] = scenarioB
		}
		stalling := runStriper(nil, "", healthy, blocks, raid.AdaptivePull{Depth: depth}, oscillate)
		t.AddRow(fmt.Sprintf("%d", depth), mb(static.Throughput), mb(stalling.Throughput))
		t.SetMetric(fmt.Sprintf("static_d%d", depth), static.Throughput)
		t.SetMetric(fmt.Sprintf("stall_d%d", depth), stalling.Throughput)
	}
	t.AddNote("a full stall (factor 0) holds `depth` blocks hostage per episode; under purely static faults depth is nearly free")
	return t
}
