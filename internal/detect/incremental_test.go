package detect

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"failstutter/internal/spec"
	"failstutter/internal/stats"
)

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// theilSen is the reference Theil-Sen trend slope: the median of every
// pairwise slope, skipping pairs with equal x. NaN for fewer than two
// points or when every pair is vertical.
func theilSen(xs, ys []float64) float64 {
	n := min(len(xs), len(ys))
	slopes := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dx := xs[j] - xs[i]; dx != 0 {
				slopes = append(slopes, (ys[j]-ys[i])/dx)
			}
		}
	}
	return stats.Median(slopes)
}

func TestTheilSenRobust(t *testing.T) {
	// A declining trend with one wild outlier: the median of pairwise
	// slopes is not dragged by it.
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 100 - 2*x
	}
	ys[5] = 1000
	if ts := theilSen(xs, ys); math.Abs(ts-(-2)) > 0.5 {
		t.Fatalf("Theil-Sen slope = %v, want ~-2 despite outlier", ts)
	}
}

func TestTheilSenDegenerate(t *testing.T) {
	if !math.IsNaN(theilSen([]float64{1}, []float64{1})) {
		t.Fatal("single point not NaN")
	}
	if !math.IsNaN(theilSen([]float64{2, 2}, []float64{1, 5})) {
		t.Fatal("vertical pair not NaN")
	}
}

// Property: across >= 10k random streams (including repeated timestamps
// and zero rates), the incremental slope cache produces bit-identical
// Theil-Sen estimates to recomputing every pairwise slope and sorting.
func TestTrendDetectorSlopeMatchesTheilSenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for stream := 0; stream < 10000; stream++ {
		w := 4 + rng.Intn(5)
		d := NewTrendDetector(TrendConfig{WindowSamples: w, DeclineFrac: 0.1})
		now := 0.0
		steps := 2 + rng.Intn(3*w)
		for i := 0; i < steps; i++ {
			if rng.Intn(4) != 0 {
				now += rng.ExpFloat64() // else: repeat the timestamp (dx == 0 pairs)
			}
			rate := math.Abs(rng.NormFloat64()) * 100
			if rng.Intn(8) == 0 {
				rate = 0
			}
			d.Observe(now, rate)
			want := theilSen(d.times.Values(), d.rates.Values())
			if got := d.Slope(); !sameFloat(got, want) {
				t.Fatalf("stream %d step %d (w=%d): Slope = %v, want %v\ntimes %v\nrates %v",
					stream, i, w, got, want, d.times.Values(), d.rates.Values())
			}
			// Cached value stays stable between observations.
			if got := d.Slope(); !sameFloat(got, want) {
				t.Fatalf("stream %d: cached Slope changed between calls", stream)
			}
		}
	}
}

// refPeerVerdict replicates the pre-cache PeerSet algorithm: every
// peer's window median recomputed from scratch on every verdict.
func refPeerVerdict(p *PeerSet, id string, now float64) spec.Verdict {
	m := p.members[id]
	if m == nil || !m.sawAnything {
		return spec.Nominal
	}
	if p.cfg.PromotionTimeout > 0 && now-m.lastProgress > p.cfg.PromotionTimeout {
		return spec.AbsoluteFaulty
	}
	if len(p.members) < p.cfg.MinPeers || m.window.Len() == 0 {
		return spec.Nominal
	}
	ref := refPeerMedian(p, id)
	if math.IsNaN(ref) {
		return spec.Nominal
	}
	if stats.Median(m.window.Values()) < p.cfg.Threshold*ref {
		return spec.PerfFaulty
	}
	return spec.Nominal
}

// refPeerMedian is the median of every other sampled member's window
// median, recomputed from the raw samples; NaN when no other member has
// a sample.
func refPeerMedian(p *PeerSet, id string) float64 {
	var meds []float64
	for other, om := range p.members {
		if other == id || om.window.Len() == 0 {
			continue
		}
		meds = append(meds, stats.Median(om.window.Values()))
	}
	return stats.Median(meds)
}

// Property: the cached-median PeerSet issues the same verdicts as the
// full-recompute reference under random fleets and observation orders.
func TestPeerSetMatchesRecomputeReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for stream := 0; stream < 2000; stream++ {
		pool := 2 + rng.Intn(9)
		ids := make([]string, pool)
		for i := range ids {
			ids[i] = fmt.Sprintf("c%02d", i)
		}
		p := NewPeerSet(PeerConfig{
			WindowSamples:    1 + rng.Intn(5),
			Threshold:        0.5 + rng.Float64()*0.4,
			MinPeers:         2 + rng.Intn(3),
			PromotionTimeout: float64(rng.Intn(3)) * 5,
		})
		now := 0.0
		for op := 0; op < 60; op++ {
			now += rng.Float64()
			id := ids[rng.Intn(pool)]
			rate := math.Abs(rng.NormFloat64()) * 100
			if rng.Intn(6) == 0 {
				rate = 0
			}
			p.Observe(id, now, rate)
			probe := ids[rng.Intn(pool)]
			at := now + float64(rng.Intn(4))
			if got, want := p.Verdict(probe, at), refPeerVerdict(p, probe, at); got != want {
				t.Fatalf("stream %d op %d: Verdict(%s, %v) = %v, want %v",
					stream, op, probe, at, got, want)
			}
		}
		// Cached member ids match a fresh sort.
		want := make([]string, 0, len(p.members))
		for id := range p.members {
			want = append(want, id)
		}
		sort.Strings(want)
		got := p.Members()
		if len(got) != len(want) {
			t.Fatalf("stream %d: Members len %d, want %d", stream, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stream %d: Members = %v, want %v", stream, got, want)
			}
		}
	}
}

// The steady-state Observe and Verdict paths of every detector family
// must be allocation-free: detection has to be cheap enough to run on
// every completion event.
func TestDetectorSteadyStatePathsDoNotAllocate(t *testing.T) {
	now := 100.0
	check := func(name string, fn func()) {
		t.Helper()
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s steady-state path allocates %v per run", name, n)
		}
	}

	sd := NewSpecDetector(spec.Spec{ExpectedRate: 100, Tolerance: 0.3, PromotionTimeout: 10})
	check("SpecDetector", func() {
		now++
		sd.Observe(now, 100)
		_ = sd.Verdict(now)
	})

	ed := NewEWMADetector(EWMAConfig{FastAlpha: 0.4, SlowAlpha: 0.02, Threshold: 0.7, PromotionTimeout: 10})
	check("EWMADetector", func() {
		now++
		ed.Observe(now, 100)
		_ = ed.Verdict(now)
	})

	wd := NewWindowDetector(WindowConfig{BaselineSamples: 8, RecentSamples: 16, Threshold: 0.7, PromotionTimeout: 10})
	for i := 0; i < 64; i++ {
		wd.Observe(float64(i), 100)
	}
	check("WindowDetector", func() {
		now++
		wd.Observe(now, 100)
		_ = wd.Verdict(now)
	})

	td := NewTrendDetector(TrendConfig{WindowSamples: 32, DeclineFrac: 0.1, PromotionTimeout: 10})
	for i := 0; i < 64; i++ {
		td.Observe(float64(i), 100)
	}
	check("TrendDetector", func() {
		now++
		td.Observe(now, 100)
		_ = td.Verdict(now)
		_ = td.Slope()
	})

	ps := NewPeerSet(PeerConfig{WindowSamples: 16, Threshold: 0.7, MinPeers: 4, PromotionTimeout: 10})
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for k := 0; k < 32; k++ {
		for _, id := range ids {
			ps.Observe(id, float64(k), 100)
		}
	}
	_ = ps.Members() // populate the sorted-id cache
	check("PeerSet", func() {
		now++
		for _, id := range ids {
			ps.Observe(id, now, 100)
		}
		for _, id := range ids {
			_ = ps.Verdict(id, now)
		}
		_ = ps.Members()
	})

	hy := NewHysteresis(NewEWMADetector(EWMAConfig{FastAlpha: 0.4, SlowAlpha: 0.02, Threshold: 0.7}), 3, 3)
	check("Hysteresis", func() {
		now++
		hy.Observe(now, 100)
		_ = hy.Verdict(now)
	})

	reg := NewRegistry()
	reg.Update(0, "x", spec.PerfFaulty)
	check("Registry unchanged update", func() {
		now++
		reg.Update(now, "x", spec.PerfFaulty)
	})
}
