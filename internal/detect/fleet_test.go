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

// TestPeerSetLargeFleetMatchesBruteForce drives a 552-member fleet
// through the per-id Observe path and cross-checks every verdict against
// an independent brute-force reference: window medians recomputed from
// the raw samples, exclude-one fleet medians from a fresh sort.
func TestPeerSetLargeFleetMatchesBruteForce(t *testing.T) {
	const (
		peers  = 552
		window = 5
		rounds = 9
	)
	cfg := PeerConfig{WindowSamples: window, Threshold: 0.7, MinPeers: 4}
	p := NewPeerSet(cfg)
	rng := rand.New(rand.NewSource(11))
	ids := make([]string, peers)
	samples := make([][]float64, peers)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%04d", i)
	}
	for k := 0; k < rounds; k++ {
		now := float64(k)
		for i, id := range ids {
			rate := 90 + 20*rng.Float64()
			if i%97 == 0 {
				rate *= 0.3 // a few persistent stragglers to flag
			}
			samples[i] = append(samples[i], rate)
			p.Observe(id, now, rate)
		}
	}
	now := float64(rounds)

	// Brute-force reference, recomputed from scratch.
	meds := make([]float64, peers)
	for i := range meds {
		s := samples[i]
		if len(s) > window {
			s = s[len(s)-window:]
		}
		meds[i] = stats.Median(s)
	}
	sorted := append([]float64(nil), meds...)
	sort.Float64s(sorted)
	for i, id := range ids {
		j := sort.SearchFloat64s(sorted, meds[i])
		rest := append(append([]float64(nil), sorted[:j]...), sorted[j+1:]...)
		ref := stats.Median(rest)
		want := spec.Nominal
		if meds[i] < cfg.Threshold*ref {
			want = spec.PerfFaulty
		}
		if got := p.Verdict(id, now); got != want {
			t.Fatalf("member %s: verdict %v, brute force says %v (med %v, ref %v)",
				id, got, want, meds[i], ref)
		}
	}
}

// TestPeerSetInterleavedAcrossCutoff interleaves Observe and Verdict while
// the fleet grows from 1 to 542 members: every verdict issued mid-growth
// must match a brute-force reference over the members seen so far, so
// refilling the median band on a read after each observe leaves no seam
// at any fleet size.
func TestPeerSetInterleavedAcrossCutoff(t *testing.T) {
	cfg := PeerConfig{WindowSamples: 3, Threshold: 0.7, MinPeers: 4}
	p := NewPeerSet(cfg)
	rng := rand.New(rand.NewSource(12))
	var meds []float64
	for i := 0; i < 542; i++ {
		rate := 90 + 20*rng.Float64()
		if i%50 == 0 {
			rate *= 0.2
		}
		id := fmt.Sprintf("d%04d", i)
		p.Observe(id, 0, rate)
		meds = append(meds, rate) // window of 1 sample: median is the rate
		if i < 4 || i%7 != 0 {
			continue
		}
		probe := rng.Intn(i + 1)
		sorted := append([]float64(nil), meds...)
		sort.Float64s(sorted)
		j := sort.SearchFloat64s(sorted, meds[probe])
		rest := append(append([]float64(nil), sorted[:j]...), sorted[j+1:]...)
		want := spec.Nominal
		if meds[probe] < cfg.Threshold*stats.Median(rest) {
			want = spec.PerfFaulty
		}
		if got := p.Verdict(fmt.Sprintf("d%04d", probe), 0); got != want {
			t.Fatalf("at fleet size %d, member %d: verdict %v, want %v", i+1, probe, got, want)
		}
	}
}

// TestPeerSetMillionMemberSweepNoAllocs is the tentpole's complexity
// claim, pinned: one full monitoring sweep — observe every member, then
// classify every member — over a million-disk fleet performs zero heap
// allocations. The first sweep (AllocsPerRun's warm-up call) grows the
// reusable medians buffer; steady state must stay flat.
func TestPeerSetMillionMemberSweepNoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("million-member fleet build is slow; skipped in -short")
	}
	const peers = 1 << 20
	cfg := PeerConfig{WindowSamples: 4, Threshold: 0.7, MinPeers: 4}
	p := NewPeerSet(cfg)
	ids := make([]string, peers)
	for i := range ids {
		ids[i] = fmt.Sprintf("disk%07d", i)
	}
	for k := 0; k < 4; k++ {
		now := float64(k)
		for i, id := range ids {
			p.Observe(id, now, 100+float64((i+k)%13))
		}
	}
	faulty := 0
	round := 4
	sweep := func() {
		now := float64(round)
		round++
		for i, id := range ids {
			rate := 100 + float64((i+round)%13)
			if i%1000 == 0 {
				rate = 5 // stragglers the sweep must still flag
			}
			p.Observe(id, now, rate)
		}
		for _, id := range ids {
			if p.Verdict(id, now) != spec.Nominal {
				faulty++
			}
		}
	}
	if n := testing.AllocsPerRun(1, sweep); n != 0 {
		t.Fatalf("million-member sweep allocates %v per run, want 0", n)
	}
	if faulty == 0 {
		t.Fatal("sweep flagged nothing; straggler injection broken")
	}
}

// TestPeerSetSilentMembersAreNotPeers registers a fleet of which only
// half ever reports: a registered member with no sample has no median, so
// it must not drag the peer median toward zero. The 60-rate straggler
// sits below 0.7 of its reporting peers' 100 and must be flagged at
// every fleet size, as the brute-force reference says.
func TestPeerSetSilentMembersAreNotPeers(t *testing.T) {
	for _, peers := range []int{20, 600} {
		t.Run(fmt.Sprintf("peers=%d", peers), func(t *testing.T) {
			p := NewPeerSet(PeerConfig{WindowSamples: 4, Threshold: 0.7, MinPeers: 4})
			ids := make([]string, peers)
			for i := range ids {
				ids[i] = fmt.Sprintf("d%04d", i)
				p.Register(ids[i])
			}
			const straggler = 0
			for i := 0; i < peers/2; i++ {
				rate := 100.0
				if i == straggler {
					rate = 60
				}
				p.Observe(ids[i], 1, rate)
			}
			if got := p.Verdict(ids[straggler], 1); got != spec.PerfFaulty {
				t.Fatalf("straggler verdict %v, want %v", got, spec.PerfFaulty)
			}
			for _, id := range ids {
				if got, want := p.Verdict(id, 1), refPeerVerdict(p, id, 1); got != want {
					t.Fatalf("member %s: verdict %v, brute force says %v", id, got, want)
				}
			}
		})
	}
}

// TestPeerSetEvidenceTracksFleetShift pins the audit evidence to the
// current fleet: after every member moves from 100 to 10, the peer median
// a member's evidence reports must be 10, not the median band left over
// from the last verdict read.
func TestPeerSetEvidenceTracksFleetShift(t *testing.T) {
	for _, peers := range []int{20, 600} {
		t.Run(fmt.Sprintf("peers=%d", peers), func(t *testing.T) {
			p := NewPeerSet(PeerConfig{WindowSamples: 1, Threshold: 0.7, MinPeers: 4})
			ids := make([]string, peers)
			for i := range ids {
				ids[i] = fmt.Sprintf("d%04d", i)
				p.Observe(ids[i], 1, 100)
			}
			for _, id := range ids {
				p.Verdict(id, 1)
			}
			for _, id := range ids {
				p.Observe(id, 2, 10)
			}
			ev := EvidenceOf(p.ComponentDetector(ids[0]))
			if ev.Observed != 10 || ev.Reference != 10 {
				t.Fatalf("evidence after the shift: observed %v, peer median %v; want 10 and 10",
					ev.Observed, ev.Reference)
			}
		})
	}
}

// TestPeerSetSmallFleetsMatchReference covers the median band's small
// cases: 2 to 6 sampled members, so the peer count n−1 takes both
// parities, among silent registered members that are nobody's peer, with
// member 1 at the fleet maximum. Verdict, SweepVerdicts and the evidence's
// peer median must all agree with the brute-force reference, the medians
// bit for bit.
func TestPeerSetSmallFleetsMatchReference(t *testing.T) {
	rates := []float64{90, 1000, 40, 100, 110, 100}
	for sampled := 2; sampled <= len(rates); sampled++ {
		t.Run(fmt.Sprintf("sampled=%d", sampled), func(t *testing.T) {
			p := NewPeerSet(PeerConfig{WindowSamples: 1, Threshold: 0.7, MinPeers: 2})
			var ids []string
			for i := 0; i < sampled; i++ {
				silent := fmt.Sprintf("s%d", i)
				p.Register(silent)
				ids = append(ids, silent, fmt.Sprintf("d%d", i))
			}
			for i := 0; i < sampled; i++ {
				p.Observe(fmt.Sprintf("d%d", i), 1, rates[i])
			}
			for _, id := range ids {
				if got, want := p.Verdict(id, 1), refPeerVerdict(p, id, 1); got != want {
					t.Fatalf("Verdict(%s) = %v, brute force says %v", id, got, want)
				}
				ev := EvidenceOf(p.ComponentDetector(id))
				_, want := refEvidence(p, id)
				if math.Float64bits(ev.Reference) != math.Float64bits(want) {
					t.Fatalf("evidence for %s: peer median %v, brute force says %v", id, ev.Reference, want)
				}
			}
			out := make([]spec.Verdict, p.MemberCount())
			flagged := p.SweepVerdicts(testPool{n: 2}, 1, out)
			count := 0
			for _, id := range ids {
				v := out[p.Register(id)]
				if want := refPeerVerdict(p, id, 1); v != want {
					t.Fatalf("sweep verdict for %s = %v, brute force says %v", id, v, want)
				}
				if v != spec.Nominal {
					count++
				}
			}
			if count == 0 || flagged != count {
				t.Fatalf("sweep flagged %d, %d verdicts are non-nominal; want the same, above 0", flagged, count)
			}
		})
	}
}
