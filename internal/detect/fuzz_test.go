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

// fuzzMaxSteps bounds one FuzzHysteresis program's Observe and Verdict
// calls.
const fuzzMaxSteps = 256

// scriptedDetector is FuzzHysteresis's inner detector: it reports
// whatever verdict the program last set.
type scriptedDetector struct{ v spec.Verdict }

func (d *scriptedDetector) Observe(now, rate float64)        {}
func (d *scriptedDetector) Verdict(now float64) spec.Verdict { return d.v }

// refHysteresis is FuzzHysteresis's reference state machine. It keeps
// the history of inner verdicts its Observes saw and reads each streak
// off the history's tail, instead of keeping running counters as
// Hysteresis does; want collects the audit records it expects.
type refHysteresis struct {
	enter, exit int
	seen        []spec.Verdict
	reported    spec.Verdict
	want        []trace.AuditRecord
}

// run counts the trailing observations equal to v.
func (r *refHysteresis) run(v spec.Verdict) int {
	n := 0
	for i := len(r.seen) - 1; i >= 0 && r.seen[i] == v; i-- {
		n++
	}
	return n
}

func (r *refHysteresis) expect(now float64, kind string, to spec.Verdict, streak, need int) {
	r.want = append(r.want, trace.AuditRecord{
		Time: now, Kind: kind, From: r.reported.String(), To: to.String(), Streak: streak, Need: need,
	})
}

func (r *refHysteresis) latch(now float64) {
	r.expect(now, trace.AuditLatch, spec.AbsoluteFaulty, 0, 0)
	r.reported = spec.AbsoluteFaulty
}

func (r *refHysteresis) observe(now float64, v spec.Verdict) {
	if r.reported == spec.AbsoluteFaulty {
		return
	}
	if v == spec.AbsoluteFaulty {
		r.latch(now)
		return
	}
	r.seen = append(r.seen, v)
	need := r.enter
	if v == spec.Nominal {
		need = r.exit
	}
	if v == r.reported {
		return // agreement: streaks move, nothing to decide
	}
	streak := r.run(v)
	if streak < need {
		r.expect(now, trace.AuditDebounce, v, streak, need)
		return
	}
	r.expect(now, trace.AuditTransition, v, streak, need)
	r.reported = v
}

func (r *refHysteresis) verdict(now float64, v spec.Verdict) spec.Verdict {
	if r.reported != spec.AbsoluteFaulty && v == spec.AbsoluteFaulty {
		r.latch(now)
	}
	return r.reported
}

// FuzzHysteresis decodes its input as (enterAfter, exitAfter) in 1..8
// and then a program of up to 256 steps. Each step sets the inner
// detector's verdict (nominal, perf-faulty or absolute) and calls
// Observe or Verdict. After every step the reported verdict must match
// refHysteresis's, and the audit log must match its records: kinds,
// verdicts, streaks and times. Independently of the reference, every
// change of the reported verdict must show up as exactly one transition
// or latch record at that step, naming the old and new verdicts, and no
// such record may appear at a step where the verdict did not change; an
// absolute verdict never leaves; and a record that moves the verdict
// back to nominal carries a full exit streak. The seed corpus under
// testdata/fuzz/FuzzHysteresis replays on every go test run.
func FuzzHysteresis(f *testing.F) {
	verdicts := [3]spec.Verdict{spec.Nominal, spec.PerfFaulty, spec.AbsoluteFaulty}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &fuzzProgram{b: data}
		inner := &scriptedDetector{v: spec.Nominal}
		ref := &refHysteresis{enter: 1 + int(p.next()%8), exit: 1 + int(p.next()%8), reported: spec.Nominal}
		h := NewHysteresis(inner, ref.enter, ref.exit)
		log := trace.NewAuditLog()
		h.EnableAudit(log, "c")
		prev := spec.Nominal
		for step := 1; step <= fuzzMaxSteps && p.more(); step++ {
			b := p.next()
			now := float64(step)
			inner.v = verdicts[(b>>1)%3]
			if b&1 == 0 {
				h.Observe(now, 1)
				ref.observe(now, inner.v)
			} else if got, want := h.Verdict(now), ref.verdict(now, inner.v); got != want {
				t.Fatalf("step %d: Verdict = %v, want %v", step, got, want)
			}
			// A nominal inner verdict reads the reported verdict without
			// moving the state machine.
			inner.v = spec.Nominal
			got := h.Verdict(now)
			if got != ref.reported {
				t.Fatalf("step %d (enter %d, exit %d): reported %v, want %v", step, ref.enter, ref.exit, got, ref.reported)
			}
			if prev == spec.AbsoluteFaulty && got != spec.AbsoluteFaulty {
				t.Fatalf("step %d: absolute verdict left its latch for %v", step, got)
			}
			var moves []trace.AuditRecord
			for _, r := range log.Records() {
				if r.Time == now && r.Kind != trace.AuditDebounce {
					moves = append(moves, r)
				}
			}
			switch {
			case got == prev && len(moves) > 0:
				t.Fatalf("step %d: %d transition/latch records but the verdict stayed %v", step, len(moves), got)
			case got != prev && (len(moves) != 1 || moves[0].From != prev.String() || moves[0].To != got.String()):
				t.Fatalf("step %d: verdict moved %v -> %v, records %+v", step, prev, got, moves)
			case got != prev && got == spec.Nominal && (moves[0].Streak != ref.exit || moves[0].Need != ref.exit):
				t.Fatalf("step %d: back to nominal on streak %d/%d, want %d", step, moves[0].Streak, moves[0].Need, ref.exit)
			}
			prev = got
		}
		recs := log.Records()
		if len(recs) != len(ref.want) {
			t.Fatalf("audit log has %d records, reference %d:\n%+v\nwant %+v", len(recs), len(ref.want), recs, ref.want)
		}
		for i, r := range recs {
			w := ref.want[i]
			if r.Time != w.Time || r.Kind != w.Kind || r.From != w.From || r.To != w.To ||
				r.Streak != w.Streak || r.Need != w.Need || r.Component != "c" {
				t.Fatalf("audit record %d = %+v, want %+v", i, r, w)
			}
		}
	})
}
