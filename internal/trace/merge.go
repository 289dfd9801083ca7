package trace

import (
	"fmt"
	"slices"
	"sort"
)

// This file is the deterministic merge layer: per-shard collectors
// (tracers, registries, audit logs) fold into one destination collector
// whose exported artifacts are byte-identical at any shard count. The
// contract every merge follows:
//
//   - ordering keys are placement-invariant — start time, track name,
//     per-track begin sequence, metric key, (time, component) — never
//     record order, shard index, or map iteration;
//   - numeric folds are exact integer/float accumulations in canonical
//     key order, so float rounding cannot depend on shard count;
//   - merging N parts into an empty destination commutes with having
//     recorded everything on one collector.

// spanEntry is one exported span with the placement-invariant keys a
// merge orders it by: the resolved track name, the span's begin sequence
// on that track, and the merge epoch.
type spanEntry struct {
	span  Span
	name  string
	seq   uint64
	epoch uint32
}

// sortEntries orders exported spans canonically: by start time, then
// track name, then the track's begin sequence, then merge epoch. Each
// track records on exactly one collector per sub-run, so the key is a
// strict total order over any one merge batch.
func sortEntries(ents []spanEntry) {
	sort.Slice(ents, func(i, j int) bool {
		a, b := &ents[i], &ents[j]
		if a.span.Start != b.span.Start {
			return a.span.Start < b.span.Start
		}
		if a.name != b.name {
			return a.name < b.name
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.epoch < b.epoch
	})
}

// tracerExport is one collector's contribution to a merge: its retained
// entries keyed for canonical ordering, its track-name table, and its
// exact recorded count.
type tracerExport struct {
	ents     []spanEntry
	tracks   []string
	recorded uint64
}

// exportEntries snapshots the tracer's retained spans with their
// placement-invariant merge keys. A plain tracer derives each span's
// per-track begin sequence lazily here (record order within one track is
// the begin order), so the recording hot path pays nothing for it.
func (t *Tracer) exportEntries() tracerExport {
	t.mu.Lock()
	defer t.mu.Unlock()
	tracks := make([]string, len(t.tracks))
	copy(tracks, t.tracks)
	if t.fr != nil {
		return tracerExport{ents: t.fr.snapshot(), tracks: tracks, recorded: t.fr.recorded}
	}
	ents := make([]spanEntry, len(t.spans))
	seqs := make([]uint64, len(t.tracks))
	for i, sp := range t.spans {
		seq := seqs[sp.Track]
		seqs[sp.Track] = seq + 1
		ents[i] = spanEntry{span: sp, name: t.tracks[sp.Track], seq: seq}
	}
	return tracerExport{ents: ents, tracks: tracks, recorded: uint64(len(t.spans))}
}

// Merge folds the parts' spans into t in canonical (start, track name,
// begin sequence) order. Track names are unioned into t's table in
// sorted order; span ids are reissued densely under t's shard qualifier
// with parent links remapped across parts (a parent that was never
// retained becomes 0). Parts should be Flushed first — an open span
// merges with its NaN end time intact.
//
// A flight-recorder destination instead feeds every part entry through
// its own bounded selection under a fresh merge epoch, adding the parts'
// exact recorded counts to its own; because the selection is a pure
// function of (bounds, seed, keys), merging per-shard recorders
// reproduces the single-shard selection byte for byte.
//
// The parts are left untouched; merging a nil part or t itself is a
// no-op.
func (t *Tracer) Merge(parts ...*Tracer) {
	if t == nil {
		return
	}
	exports := make([]tracerExport, 0, len(parts))
	total, totalTracks := 0, 0
	for _, p := range parts {
		if p == nil || p == t {
			continue
		}
		ex := p.exportEntries()
		exports = append(exports, ex)
		total += len(ex.ents)
		totalTracks += len(ex.tracks)
	}
	// The union of the parts' track names, sorted: per-shard tables that
	// registered their tracks in name order concatenate already sorted,
	// which the sort finishes in linear time.
	names := make([]string, 0, totalTracks)
	for _, ex := range exports {
		names = append(names, ex.tracks...)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	all := make([]spanEntry, 0, total)
	for _, ex := range exports {
		all = append(all, ex.ents...)
	}
	sortEntries(all)

	t.mu.Lock()
	defer t.mu.Unlock()
	// Register the union in sorted order even when no spans survived:
	// empty tracks still appear in the exported timeline, and their order
	// must not depend on shard placement. A destination with no tracks
	// yet sizes its track table for the union once.
	if len(t.tracks) == 0 {
		t.tracks = make([]string, 0, len(names))
		t.trackIx = make(map[string]TrackID, len(names))
	}
	for _, n := range names {
		t.trackLocked(n)
	}
	if t.fr != nil {
		t.fr.epoch++
		for _, ex := range exports {
			t.fr.recorded += ex.recorded
		}
		for i := range all {
			e := &all[i]
			t.fr.retire(&frEntry{
				trackName: e.name, name: e.span.Name, cat: e.span.Cat,
				start: e.span.Start + t.offset, end: e.span.End + t.offset,
				arg: e.span.Arg, seq: e.seq, track: t.trackIx[e.name], epoch: t.fr.epoch,
				hasArg: e.span.HasArg, instant: e.span.Instant,
			})
		}
		return
	}
	base := len(t.spans)
	remap := make(map[SpanID]SpanID, len(all))
	for i, e := range all {
		if e.span.ID != 0 {
			remap[e.span.ID] = t.qual | SpanID(base+i+1)
		}
	}
	for i, e := range all {
		sp := e.span
		sp.ID = t.qual | SpanID(base+i+1)
		sp.Parent = remap[e.span.Parent] // zero-value miss cuts the link
		sp.Track = t.trackIx[e.name]
		sp.Start += t.offset
		sp.End += t.offset
		t.spans = append(t.spans, sp)
	}
}

// Merge folds the parts' histograms bucket-by-bucket into h: counts,
// exact count/sum/NaN tallies add, min/max fold (the empty sentinels
// +Inf/-Inf make that safe). The bucket layouts must match — merging
// across layouts would silently misbin, so it panics instead. The
// receiver keeps its own bounds slice; p is read-only.
func (h *Histogram) Merge(p *Histogram) {
	if len(h.bounds) != len(p.bounds) ||
		h.bounds[0] != p.bounds[0] || h.bounds[len(h.bounds)-1] != p.bounds[len(p.bounds)-1] {
		panic(fmt.Sprintf("trace: Histogram.Merge bucket layout mismatch ([%g,%g]x%d vs [%g,%g]x%d)",
			h.bounds[0], h.bounds[len(h.bounds)-1], len(h.bounds)-1,
			p.bounds[0], p.bounds[len(p.bounds)-1], len(p.bounds)-1))
	}
	for i, c := range p.counts {
		h.counts[i] += c
	}
	h.count += p.count
	h.sum += p.sum
	h.nan += p.nan
	if p.min < h.min {
		h.min = p.min
	}
	if p.max > h.max {
		h.max = p.max
	}
}

// clone deep-copies the histogram. Reconstructing the bounds from lo/hi
// would re-run the ratio recurrence and drift in the last ulp, so the
// clone copies the bounds verbatim.
func (h *Histogram) clone() *Histogram {
	c := *h
	c.bounds = append([]float64(nil), h.bounds...)
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// merge folds p's samples into s by timestamp (two-pointer). Where both
// sides sampled the same instant the incoming part wins, matching Add's
// latest-wins collapse — the part's sample is the later write in the
// merged timeline.
func (s *Series) merge(p *Series) {
	if p.Len() == 0 {
		return
	}
	if s.Len() == 0 || p.Times[0] > s.Times[len(s.Times)-1] {
		s.Times = append(s.Times, p.Times...)
		s.Values = append(s.Values, p.Values...)
		return
	}
	nt := make([]float64, 0, len(s.Times)+len(p.Times))
	nv := make([]float64, 0, len(s.Values)+len(p.Values))
	i, j := 0, 0
	for i < len(s.Times) && j < len(p.Times) {
		switch {
		case s.Times[i] < p.Times[j]:
			nt = append(nt, s.Times[i])
			nv = append(nv, s.Values[i])
			i++
		case s.Times[i] > p.Times[j]:
			nt = append(nt, p.Times[j])
			nv = append(nv, p.Values[j])
			j++
		default:
			nt = append(nt, p.Times[j])
			nv = append(nv, p.Values[j])
			i++
			j++
		}
	}
	nt = append(nt, s.Times[i:]...)
	nv = append(nv, s.Values[i:]...)
	nt = append(nt, p.Times[j:]...)
	nv = append(nv, p.Values[j:]...)
	s.Times, s.Values = nt, nv
}

// Merge folds p into a: offered/completed/within add and the latency
// histograms merge. The thresholds must agree — "within threshold" is
// not refoldable across different thresholds — so a mismatch panics.
func (a *AvailabilityMeter) Merge(p *AvailabilityMeter) {
	if a.threshold != p.threshold {
		panic(fmt.Sprintf("trace: AvailabilityMeter.Merge threshold mismatch (%g vs %g)", a.threshold, p.threshold))
	}
	a.offered += p.offered
	a.completed += p.completed
	a.within += p.within
	a.latency.Merge(p.latency)
}

// clone deep-copies the meter.
func (a *AvailabilityMeter) clone() *AvailabilityMeter {
	c := *a
	c.latency = a.latency.clone()
	return &c
}

// Merge folds the parts' instruments into r, matching by registry key
// (name plus sorted labels) in each part's sorted-key order: counters
// add, histograms and meters fold exactly (panicking on layout or
// threshold mismatches), series merge by timestamp with the part
// winning ties, and oracle stats overwrite (a conformance row has one
// writer). Instruments new to r are registered with deep copies, never
// aliased, so the parts stay independent. Merging a nil part or r
// itself is a no-op.
func (r *Registry) Merge(parts ...*Registry) {
	if r == nil {
		return
	}
	for _, p := range parts {
		if p == nil || p == r {
			continue
		}
		for _, pe := range p.sortedEntries() {
			r.mergeEntry(pe)
		}
	}
}

func (r *Registry) mergeEntry(pe *entry) {
	e := r.lookup(pe.kind, pe.name, pe.labels)
	switch pe.kind {
	case kindCounter:
		if pe.c == nil {
			return
		}
		if e.c == nil {
			e.c = &Counter{}
		}
		e.c.Add(pe.c.Value())
	case kindHistogram:
		if pe.h == nil {
			return
		}
		if e.h == nil {
			e.h = pe.h.clone()
		} else {
			e.h.Merge(pe.h)
		}
	case kindSeries:
		if pe.s == nil {
			return
		}
		if e.s == nil {
			e.s = &Series{}
		}
		e.s.merge(pe.s)
	case kindMeter:
		if pe.m == nil {
			return
		}
		if e.m == nil {
			e.m = pe.m.clone()
		} else {
			e.m.Merge(pe.m)
		}
	case kindOracle:
		if pe.o == nil {
			return
		}
		if e.o == nil {
			e.o = &OracleStat{}
		}
		*e.o = *pe.o
	}
}

// Merge appends the parts' records to l in one deterministically ordered
// batch: the concatenation is stably sorted by (time, component), so the
// merged trail cannot depend on which shard's detector recorded first.
// Records already in l (written directly by barrier-context or serial
// detectors) keep their position; the merged batch lands after them.
// Times are taken as-is — audit records carry experiment-rebased times
// already. Merging a nil part or l itself is a no-op.
func (l *AuditLog) Merge(parts ...*AuditLog) {
	if l == nil {
		return
	}
	var batch []AuditRecord
	for _, p := range parts {
		if p == nil || p == l {
			continue
		}
		batch = append(batch, p.Records()...)
	}
	if len(batch) == 0 {
		return
	}
	sort.SliceStable(batch, func(i, j int) bool {
		if batch[i].Time != batch[j].Time {
			return batch[i].Time < batch[j].Time
		}
		return batch[i].Component < batch[j].Component
	})
	l.mu.Lock()
	l.recs = append(l.recs, batch...)
	l.mu.Unlock()
}
