package detect

import (
	"fmt"
	"math"
	"testing"

	"failstutter/internal/spec"
	"failstutter/internal/stats"
)

// fuzzMaxPeers bounds the fleet a FuzzPeerSet program can build, and
// fuzzMaxOps the number of operations it runs: enough for hundreds of
// members under every interleaving, small enough that the brute-force
// reference keeps one execution fast.
const (
	fuzzMaxPeers = 700
	fuzzMaxOps   = 64
)

// fuzzProgram reads a FuzzPeerSet program's bytes; an exhausted program
// reads as zeros.
type fuzzProgram struct{ b []byte }

func (r *fuzzProgram) more() bool { return len(r.b) > 0 }

func (r *fuzzProgram) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// member reads a member index in [0, fuzzMaxPeers).
func (r *fuzzProgram) member() int {
	return (int(r.next())<<8 | int(r.next())) % fuzzMaxPeers
}

// rate reads a sample from a coarse grid, so duplicates and zero rates
// (silence) are common.
func (r *fuzzProgram) rate() float64 { return float64(r.next()%16) * 10 }

func fuzzID(k int) string { return fmt.Sprintf("m%03d", k) }

// FuzzPeerSet decodes its input as a program against one PeerSet —
// registrations, per-id observes and verdicts, sweeps on 1–4 workers and
// evidence reads, interleaved in any order over a fleet of up to 700
// members — and checks every verdict against the brute-force
// refPeerVerdict, every sweep's flag count against its non-nominal
// verdicts, and every piece of evidence against medians recomputed from
// the raw samples. The seed corpus under testdata/fuzz/FuzzPeerSet
// replays on every go test run.
func FuzzPeerSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &fuzzProgram{b: prog}
		p := NewPeerSet(PeerConfig{
			WindowSamples:    1 + int(r.next()%4),
			Threshold:        0.5 + float64(r.next()%5)/10,
			MinPeers:         2 + int(r.next()%4),
			PromotionTimeout: float64(r.next()%3) * 2,
		})
		for k, n := 0, int(r.next())*3%(fuzzMaxPeers+1); k < n; k++ {
			p.Register(fuzzID(k))
		}
		now := 0.0
		for op := 0; op < fuzzMaxOps && r.more(); op++ {
			switch r.next() % 7 {
			case 0:
				p.Register(fuzzID(r.member()))
			case 1:
				p.Observe(fuzzID(r.member()), now, r.rate())
			case 2:
				id, at := fuzzID(r.member()), now+float64(r.next()%4)
				if got, want := p.Verdict(id, at), refPeerVerdict(p, id, at); got != want {
					t.Fatalf("op %d: Verdict(%s, %v) = %v, brute force says %v", op, id, at, got, want)
				}
			case 3:
				pool := testPool{n: 1 + int(r.next()%4)}
				rates := make([]float64, p.MemberCount())
				// A seed under 16 shifts the whole fleet to one rate;
				// any other seeds a scatter over the rate grid.
				seed := r.next()
				s := uint32(seed)
				for i := range rates {
					s = s*1664525 + 1013904223
					rates[i] = float64(s>>28) * 10
					if seed < 16 {
						rates[i] = float64(seed) * 10
					}
				}
				p.SweepObserve(pool, now, rates)
			case 4:
				pool := testPool{n: 1 + int(r.next()%4)}
				out := make([]spec.Verdict, p.MemberCount())
				flagged := p.SweepVerdicts(pool, now, out)
				dense := make([]string, len(out))
				for id, m := range p.members {
					dense[m.idx] = id
				}
				count := 0
				for i, v := range out {
					if want := refPeerVerdict(p, dense[i], now); v != want {
						t.Fatalf("op %d: sweep verdict for %s = %v, brute force says %v", op, dense[i], v, want)
					}
					if v != spec.Nominal {
						count++
					}
				}
				if flagged != count {
					t.Fatalf("op %d: sweep flagged %d, but %d verdicts are non-nominal", op, flagged, count)
				}
			case 5:
				id := fuzzID(r.member())
				ev := EvidenceOf(p.ComponentDetector(id))
				obs, ref := refEvidence(p, id)
				if !sameFloat(ev.Observed, obs) || !sameFloat(ev.Reference, ref) {
					t.Fatalf("op %d: evidence for %s: observed %v, peer median %v; brute force says %v, %v",
						op, id, ev.Observed, ev.Reference, obs, ref)
				}
			case 6:
				now += float64(1 + r.next()%3)
			}
		}
	})
}

// refEvidence recomputes a member's evidence from the raw samples: its
// window median and its peers' median, both NaN for a member with no
// sample.
func refEvidence(p *PeerSet, id string) (obs, ref float64) {
	m := p.members[id]
	if m == nil || m.window.Len() == 0 {
		return math.NaN(), math.NaN()
	}
	return stats.Median(m.window.Values()), refPeerMedian(p, id)
}
