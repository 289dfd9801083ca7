package trace

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// frView is one exported flight-recorder span with its track resolved to
// a name, so selections from tracers that numbered their tracks
// differently compare directly.
type frView struct {
	Track           string
	Name, Cat       string
	Start, End      float64
	Arg             int64
	HasArg, Instant bool
}

// frViews exports tr's retained spans, checking that a flight recorder
// numbers them densely and cuts every parent link.
func frViews(t *testing.T, tr *Tracer) []frView {
	t.Helper()
	tracks := tr.Tracks()
	spans := tr.Spans()
	out := make([]frView, len(spans))
	for i, sp := range spans {
		if sp.ID != SpanID(i+1) || sp.Parent != 0 {
			t.Fatalf("span %d exported with id %d parent %d, want id %d and no parent", i, sp.ID, sp.Parent, i+1)
		}
		out[i] = frView{tracks[sp.Track], sp.Name, sp.Cat, sp.Start, sp.End, sp.Arg, sp.HasArg, sp.Instant}
	}
	return out
}

// frRecord is one retirement as the keep-everything reference sees it:
// the exported fields plus the track's begin sequence and merge epoch.
type frRecord struct {
	view  frView
	seq   uint64
	epoch uint32
}

// frReference selects from every retirement the way the flight recorder
// is specified to: sort all of them, keep the cfg.Ring most recent by
// (end, track name, sequence, epoch) and the cfg.Reservoir lowest by
// (priority, track name, sequence, epoch), take the union by identity,
// and order it by (start, track name, sequence, epoch). Names compare as
// strings here, whatever shortcut the recorder takes.
func frReference(cfg RecorderConfig, all []frRecord) []frView {
	type ident struct {
		track string
		seq   uint64
		epoch uint32
	}
	chain := func(a, b *frRecord) bool {
		if a.view.Track != b.view.Track {
			return a.view.Track < b.view.Track
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.epoch < b.epoch
	}
	recs := slices.Clone(all)
	keep := map[ident]frRecord{}
	sort.Slice(recs, func(i, j int) bool { // most recent first
		a, b := &recs[i], &recs[j]
		if a.view.End != b.view.End {
			return a.view.End > b.view.End
		}
		return chain(b, a)
	})
	for _, r := range recs[:min(max(cfg.Ring, 0), len(recs))] {
		keep[ident{r.view.Track, r.seq, r.epoch}] = r
	}
	prio := func(r *frRecord) uint64 { return frPriority(cfg.Seed, r.view.Track, r.seq) }
	sort.Slice(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if pa, pb := prio(a), prio(b); pa != pb {
			return pa < pb
		}
		return chain(a, b)
	})
	for _, r := range recs[:min(max(cfg.Reservoir, 0), len(recs))] {
		keep[ident{r.view.Track, r.seq, r.epoch}] = r
	}
	sel := make([]frRecord, 0, len(keep))
	for _, r := range keep {
		sel = append(sel, r)
	}
	sort.Slice(sel, func(i, j int) bool {
		a, b := &sel[i], &sel[j]
		if a.view.Start != b.view.Start {
			return a.view.Start < b.view.Start
		}
		return chain(a, b)
	})
	out := make([]frView, len(sel))
	for i, r := range sel {
		out[i] = r.view
	}
	return out
}

// frFeed records spans on a tracer and in a keep-everything log at once.
type frFeed struct {
	tr    *Tracer
	epoch uint32
	seqs  map[string]uint64
	all   []frRecord
}

func newFRFeed(tr *Tracer) *frFeed { return &frFeed{tr: tr, seqs: map[string]uint64{}} }

// span records a complete span on track from start to end.
func (f *frFeed) span(track string, start, end float64) {
	f.tr.End(f.tr.Begin(f.tr.Track(track), "s", "c", 0, start), end)
	f.all = append(f.all, frRecord{view: frView{track, "s", "c", start, end, 0, false, false},
		seq: f.seqs[track], epoch: f.epoch})
	f.seqs[track]++
}

// frCheck fails unless tr's selection and Len match the reference over
// all.
func frCheck(t *testing.T, tr *Tracer, cfg RecorderConfig, all []frRecord) {
	t.Helper()
	got, want := frViews(t, tr), frReference(cfg, all)
	if !slices.Equal(got, want) {
		t.Fatalf("selection over %d retirements differs from the reference:\n got %v\nwant %v", len(all), got, want)
	}
	if n := tr.Len(); n != len(want) {
		t.Fatalf("Len = %d, want %d", n, len(want))
	}
}

// frTies are track names whose first eight bytes tie ("ab", "ab\x00";
// "track-00000001", "track-00000002"), so the selection orders must fall
// back to comparing whole names.
var frTies = []string{"ab\x00", "track-00000002", "ab", "track-00000001", "z"}

// TestFlightRecorderCompactionBoundaries retires one short of, exactly
// at, one past and well past twice the bound — the buffer size at which
// a selection compacts — under ring-only, reservoir-only and mixed
// bounds, on end times that tie across tracks whose names share their
// first eight bytes, and checks the selection and Len against the
// keep-everything reference. A Spans call part way (with the buffer
// between bound and 2·bound) compacts early; the final selection must
// not move.
func TestFlightRecorderCompactionBoundaries(t *testing.T) {
	for _, cfg := range []RecorderConfig{
		{Ring: 4, Seed: 7},
		{Reservoir: 4, Seed: 7},
		{Ring: 4, Reservoir: 3, Seed: 7},
		{Ring: 1, Reservoir: 1, Seed: 9},
	} {
		b := max(cfg.Ring, cfg.Reservoir)
		for _, n := range []int{2*b - 1, 2 * b, 2*b + 1, 4*b + 3} {
			for _, midSpans := range []bool{false, true} {
				t.Run(fmt.Sprintf("ring=%d/res=%d/n=%d/mid=%v", cfg.Ring, cfg.Reservoir, n, midSpans), func(t *testing.T) {
					tr := NewTracer()
					tr.SetFlightRecorder(cfg)
					f := newFRFeed(tr)
					for i := 0; i < n; i++ {
						if midSpans && i == b+1 {
							frCheck(t, tr, cfg, f.all)
						}
						at := 0.5 * float64(i/3)
						f.span(frTies[i%len(frTies)], at-0.5, at)
					}
					frCheck(t, tr, cfg, f.all)
				})
			}
		}
	}
}

// TestFlightRecorderMergeIntoCompactedDestination merges per-shard
// recorders into a destination that has already compacted its own
// selections: the result must be the reference selection over the
// destination's own retirements (epoch 0) and the parts' (epoch 1).
func TestFlightRecorderMergeIntoCompactedDestination(t *testing.T) {
	cfg := RecorderConfig{Ring: 4, Reservoir: 4, Seed: 11}
	dst := NewTracer()
	dst.SetFlightRecorder(cfg)
	own := newFRFeed(dst)
	for i := 0; i < 3*cfg.Ring+1; i++ {
		own.span(fmt.Sprintf("dst-%d", i%3), float64(i), float64(i)+0.5)
	}
	frCheck(t, dst, cfg, own.all)

	all := own.all
	parts := make([]*Tracer, 3)
	for p := range parts {
		parts[p] = NewShardTracer(p)
		parts[p].SetFlightRecorder(cfg)
		f := newFRFeed(parts[p])
		f.epoch = 1
		for i := 0; i < 5+4*p; i++ {
			f.span(fmt.Sprintf("part-%d-%d", p, i%2), float64(i), 2+0.5*float64(i%4))
		}
		all = append(all, f.all...)
	}
	dst.Merge(parts...)
	frCheck(t, dst, cfg, all)
	if got, want := dst.Recorded(), uint64(len(all)); got != want {
		t.Fatalf("Recorded = %d, want %d", got, want)
	}
}

// TestFlightRecorderLenDoesNotAllocate pins that Len counts the retained
// selection in place: no snapshot, no dedupe map, no sort.
func TestFlightRecorderLenDoesNotAllocate(t *testing.T) {
	tr := NewTracer()
	tr.SetFlightRecorder(RecorderConfig{Ring: 16, Reservoir: 16, Seed: 3})
	tk := tr.Track("t")
	for i := 0; i < 100; i++ {
		tr.End(tr.Begin(tk, "s", "c", 0, float64(i)), float64(i)+1)
	}
	if n := testing.AllocsPerRun(20, func() { tr.Len() }); n != 0 {
		t.Fatalf("Len allocated %v times per call, want 0", n)
	}
}

// BenchmarkFlightRecorderRetire times the flight recorder on a
// fleet-shaped stream: 2^17 tracks, each holding one open span, and each
// op ends one track's span and opens its successor, with end times
// rising on a 0.5 s grid (every track completes once per grid step, so a
// step's completions tie on end time), under E32's bounds (Ring =
// Reservoir = 2048). ns/op is the per-completion cost of the telemetry
// hooks on a traced fleet.
func BenchmarkFlightRecorderRetire(b *testing.B) {
	const tracks = 1 << 17
	tr := NewShardTracer(0)
	tr.SetFlightRecorder(RecorderConfig{Ring: 2048, Reservoir: 2048, Seed: 42})
	ids := make([]TrackID, tracks)
	open := make([]SpanID, tracks)
	for i := range ids {
		ids[i] = tr.Track(fmt.Sprintf("d%07d", i))
		open[i] = tr.Begin(ids[i], "service", "station", 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := n % tracks
		at := 0.5 * float64(n/tracks+1)
		tr.End(open[i], at)
		open[i] = tr.Begin(ids[i], "service", "station", 0, at)
	}
}
