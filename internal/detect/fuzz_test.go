package detect

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"failstutter/internal/spec"
	"failstutter/internal/stats"
	"failstutter/internal/trace"
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
// the raw samples. A twin set runs the same program but registers
// through RegisterAll — the initial fleet in one call, each later new id
// in a call of its own — and must match the Register-built set verdict
// for verdict, evidence for evidence and member for member. The seed
// corpus under testdata/fuzz/FuzzPeerSet replays on every go test run.
func FuzzPeerSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &fuzzProgram{b: prog}
		cfg := PeerConfig{
			WindowSamples:    1 + int(r.next()%4),
			Threshold:        0.5 + float64(r.next()%5)/10,
			MinPeers:         2 + int(r.next()%4),
			PromotionTimeout: float64(r.next()%3) * 2,
		}
		p, bulk := NewPeerSet(cfg), NewPeerSet(cfg)
		initial := make([]string, int(r.next())*3%(fuzzMaxPeers+1))
		for k := range initial {
			initial[k] = fuzzID(k)
			p.Register(initial[k])
		}
		bulk.RegisterAll(initial)
		now := 0.0
		for op := 0; op < fuzzMaxOps && r.more(); op++ {
			switch r.next() % 7 {
			case 0:
				id := fuzzID(r.member())
				fresh := p.member(id) == nil
				i := p.Register(id)
				if fresh {
					bulk.RegisterAll([]string{id})
				}
				if j := bulk.Register(id); j != i {
					t.Fatalf("op %d: %s has dense index %d in the bulk set, %d in the Register set", op, id, j, i)
				}
			case 1:
				id, rate := fuzzID(r.member()), r.rate()
				p.Observe(id, now, rate)
				bulk.Observe(id, now, rate)
			case 2:
				id, at := fuzzID(r.member()), now+float64(r.next()%4)
				got, want := p.Verdict(id, at), refPeerVerdict(p, id, at)
				if got != want {
					t.Fatalf("op %d: Verdict(%s, %v) = %v, brute force says %v", op, id, at, got, want)
				}
				if b := bulk.Verdict(id, at); b != got {
					t.Fatalf("op %d: bulk Verdict(%s, %v) = %v, Register set says %v", op, id, at, b, got)
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
				bulk.SweepObserve(pool, now, rates)
			case 4:
				pool := testPool{n: 1 + int(r.next()%4)}
				out := make([]spec.Verdict, p.MemberCount())
				flagged := p.SweepVerdicts(pool, now, out)
				bulkOut := make([]spec.Verdict, bulk.MemberCount())
				if bf := bulk.SweepVerdicts(pool, now, bulkOut); bf != flagged {
					t.Fatalf("op %d: bulk sweep flagged %d, Register set %d", op, bf, flagged)
				}
				count := 0
				for i, v := range out {
					id := p.names[i]
					if want := refPeerVerdict(p, id, now); v != want {
						t.Fatalf("op %d: sweep verdict for %s = %v, brute force says %v", op, id, v, want)
					}
					if bulkOut[i] != v {
						t.Fatalf("op %d: bulk sweep verdict for %s = %v, Register set says %v", op, id, bulkOut[i], v)
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
				if b := EvidenceOf(bulk.ComponentDetector(id)); !sameEvidence(b, ev) {
					t.Fatalf("op %d: bulk evidence for %s = %+v, Register set says %+v", op, id, b, ev)
				}
			case 6:
				now += float64(1 + r.next()%3)
			}
		}
		if got, want := bulk.Members(), p.Members(); !slices.Equal(got, want) {
			t.Fatalf("bulk Members = %v, Register set says %v", got, want)
		}
	})
}

// sameEvidence reports whether two pieces of evidence agree field for
// field, NaN equal to NaN.
func sameEvidence(a, b trace.Evidence) bool {
	return a.Signal == b.Signal && a.RefKind == b.RefKind &&
		sameFloat(a.Observed, b.Observed) && sameFloat(a.Reference, b.Reference) &&
		sameFloat(a.Threshold, b.Threshold) && sameFloat(a.Margin, b.Margin)
}

// refEvidence recomputes a member's evidence from the raw samples: its
// window median and its peers' median, both NaN for a member with no
// sample.
func refEvidence(p *PeerSet, id string) (obs, ref float64) {
	m := p.member(id)
	if m == nil || m.window.Len() == 0 {
		return math.NaN(), math.NaN()
	}
	return stats.Median(m.window.Values()), refPeerMedian(p, id)
}
