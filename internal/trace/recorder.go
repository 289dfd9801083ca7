package trace

import (
	"fmt"
	"math"
)

// RecorderConfig bounds a tracer for fleet scale. A flight-recorder
// tracer tracks open spans exactly (memory proportional to spans in
// flight, not spans ever recorded) and, as spans complete, retains only
// two bounded deterministic selections:
//
//   - a ring of the Ring most recent completions, selected by the total
//     order (end time, track name, per-track begin sequence) — the
//     "what just happened" view an incident timeline needs;
//   - a reservoir of Reservoir completions sampled uniformly over the
//     whole run by hashed priority — the unbiased view a latency or
//     utilization profile needs.
//
// Both selections are pure functions of placement-invariant keys, so
// per-shard recorders merge exactly: re-selecting over the union of
// per-shard retentions with the same bounds yields byte-for-byte the
// single-shard selection. Exact recorded counts remain available via
// Tracer.Recorded even though most spans are dropped.
type RecorderConfig struct {
	// Ring is how many of the most recently completed spans to retain.
	Ring int
	// Reservoir is the size of the deterministic uniform sample of all
	// completed spans.
	Reservoir int
	// Seed drives the reservoir's sampling priorities. Collectors that
	// will be merged (the per-shard recorders of one run) must share one
	// seed — fork it once from the experiment's root RNG — because the
	// priorities are part of the merge contract.
	Seed uint64
}

// SetFlightRecorder switches the tracer into flight-recorder mode. It
// must be called on a fresh tracer, before any span is recorded: the
// retention policy is part of the tracer's identity for the whole run.
// In this mode parent links are not exported — sampling cannot promise a
// span's parent survived selection.
func (t *Tracer) SetFlightRecorder(cfg RecorderConfig) {
	if t == nil {
		return
	}
	if cfg.Ring <= 0 && cfg.Reservoir <= 0 {
		panic("trace: flight recorder needs a positive ring or reservoir bound")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fr != nil || len(t.spans) > 0 {
		panic("trace: SetFlightRecorder requires a fresh tracer")
	}
	t.fr = &flightRecorder{cfg: cfg}
}

const (
	// frSlotBits splits a flight-recorder local id into an arena slot
	// (low bits) and a reuse generation (the bits up to localIDBits), so
	// a stale End cannot close a recycled slot.
	frSlotBits = 24
	frSlotMask = SpanID(1)<<frSlotBits - 1
	frMaxSlots = 1<<frSlotBits - 2
)

// frOpen is one in-flight span slot in the recorder's arena.
type frOpen struct {
	span Span
	seq  uint64
	gen  uint16
	live bool
}

// frEntry is one retained completion, carrying the placement-invariant
// keys the selections and the merge are ordered by: the resolved track
// name, the span's begin sequence on that track, and the merge epoch
// (which sub-run fed it into a destination recorder).
type frEntry struct {
	span  Span
	name  string
	seq   uint64
	epoch uint32
	prio  uint64
}

// flightRecorder holds the bounded retention state. All methods run
// under the owning Tracer's mutex.
type flightRecorder struct {
	cfg RecorderConfig

	open []frOpen
	free []int32
	// trackSeq numbers each track's begins — the placement-invariant
	// per-track sequence every selection key is built on.
	trackSeq []uint64

	// ring is a min-heap under frRingLess holding the cfg.Ring largest
	// (i.e. most recent) completions; res is a max-heap under frResLess
	// holding the cfg.Reservoir smallest priorities. Heap contents are a
	// pure function of the retired multiset, so retire order — which is
	// placement-dependent only for flush — cannot leak into the result.
	ring []frEntry
	res  []frEntry

	// epoch counts Merge batches fed into this recorder, keeping retained
	// identities from different sub-runs distinct.
	epoch uint32
	// recorded counts every span and instant ever recorded (or merged
	// in), retained or not.
	recorded uint64
}

// nextSeq returns track's next begin sequence, growing the table as
// tracks register.
func (f *flightRecorder) nextSeq(track TrackID) uint64 {
	for int(track) >= len(f.trackSeq) {
		f.trackSeq = append(f.trackSeq, 0)
	}
	s := f.trackSeq[track]
	f.trackSeq[track] = s + 1
	return s
}

// begin opens a span in the arena and returns its local id
// (generation<<frSlotBits | slot+1). start is already offset-adjusted.
func (f *flightRecorder) begin(track TrackID, name, cat string, start float64, arg int64, hasArg bool) SpanID {
	f.recorded++
	seq := f.nextSeq(track)
	var slot int32
	if n := len(f.free); n > 0 {
		slot = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		if len(f.open) > frMaxSlots {
			panic(fmt.Sprintf("trace: flight recorder exceeds %d concurrently open spans", frMaxSlots))
		}
		f.open = append(f.open, frOpen{})
		slot = int32(len(f.open) - 1)
	}
	o := &f.open[slot]
	o.gen++
	o.live = true
	o.seq = seq
	o.span = Span{
		Track: track, Name: name, Cat: cat,
		Start: start, End: math.NaN(), Arg: arg, HasArg: hasArg,
	}
	return SpanID(uint64(o.gen))<<frSlotBits | SpanID(slot+1)
}

// end closes the open span with the given local id, retiring it through
// the selections. Unknown, stale, or already-closed ids are no-ops,
// matching the plain tracer's End contract. end is offset-adjusted.
func (f *flightRecorder) end(local SpanID, end float64, tracks []string) {
	slot := int64(local&frSlotMask) - 1
	if slot < 0 || slot >= int64(len(f.open)) {
		return
	}
	o := &f.open[slot]
	if !o.live || uint16(local>>frSlotBits) != o.gen {
		return
	}
	o.live = false
	sp := o.span
	sp.End = end
	f.retire(frEntry{span: sp, name: tracks[sp.Track], seq: o.seq, epoch: f.epoch})
	o.span = Span{}
	f.free = append(f.free, int32(slot))
}

// instant records and immediately retires a marker event. at is
// offset-adjusted.
func (f *flightRecorder) instant(track TrackID, name, cat string, at float64, tracks []string) {
	f.recorded++
	seq := f.nextSeq(track)
	f.retire(frEntry{
		span: Span{Track: track, Name: name, Cat: cat, Start: at, End: at, Instant: true},
		name: tracks[track], seq: seq, epoch: f.epoch,
	})
}

// flush retires every open span at the given (offset-adjusted) end time.
func (f *flightRecorder) flush(end float64, tracks []string) {
	for slot := range f.open {
		o := &f.open[slot]
		if !o.live {
			continue
		}
		o.live = false
		sp := o.span
		sp.End = end
		f.retire(frEntry{span: sp, name: tracks[sp.Track], seq: o.seq, epoch: f.epoch})
		o.span = Span{}
		f.free = append(f.free, int32(slot))
	}
}

// retire feeds one completion through both selections.
func (f *flightRecorder) retire(e frEntry) {
	if f.cfg.Ring > 0 {
		if len(f.ring) < f.cfg.Ring {
			f.ring = append(f.ring, e)
			frSiftUp(f.ring, len(f.ring)-1, frRingHeapLess)
		} else if frRingLess(f.ring[0], e) {
			f.ring[0] = e
			frSiftDown(f.ring, 0, frRingHeapLess)
		}
	}
	if f.cfg.Reservoir > 0 {
		e.prio = frPriority(f.cfg.Seed, e.name, e.seq)
		if len(f.res) < f.cfg.Reservoir {
			f.res = append(f.res, e)
			frSiftUp(f.res, len(f.res)-1, frResHeapLess)
		} else if frResLess(e, f.res[0]) {
			f.res[0] = e
			frSiftDown(f.res, 0, frResHeapLess)
		}
	}
}

// snapshot returns the retained selection — ring ∪ reservoir, deduplicated
// by retained identity — in canonical (start, track name, begin sequence,
// epoch) order.
func (f *flightRecorder) snapshot(tracks []string) []frEntry {
	type key struct {
		name  string
		seq   uint64
		epoch uint32
	}
	out := make([]frEntry, 0, len(f.ring)+len(f.res))
	seen := make(map[key]bool, len(f.ring))
	for _, e := range f.ring {
		seen[key{e.name, e.seq, e.epoch}] = true
		out = append(out, e)
	}
	for _, e := range f.res {
		if !seen[key{e.name, e.seq, e.epoch}] {
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// frRingLess is the recency total order: by end time, then track name,
// then the track's begin sequence, then epoch. Strict for distinct
// retained spans — two spans on one track never share a sequence.
func frRingLess(a, b frEntry) bool {
	if a.span.End != b.span.End {
		return a.span.End < b.span.End
	}
	if a.name != b.name {
		return a.name < b.name
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.epoch < b.epoch
}

// frRingHeapLess roots the ring heap at its smallest (least recent)
// entry — the one a newer completion evicts.
func frRingHeapLess(a, b frEntry) bool { return frRingLess(a, b) }

// frResLess is the reservoir total order: ascending hashed priority with
// the same deterministic tie-break chain.
func frResLess(a, b frEntry) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	if a.name != b.name {
		return a.name < b.name
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.epoch < b.epoch
}

// frResHeapLess roots the reservoir heap at its largest priority — the
// entry a lower-priority completion evicts.
func frResHeapLess(a, b frEntry) bool { return frResLess(b, a) }

// frSiftUp restores heap order after appending at index i.
func frSiftUp(h []frEntry, i int, less func(a, b frEntry) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// frSiftDown restores heap order after replacing the entry at index i.
func frSiftDown(h []frEntry, i int, less func(a, b frEntry) bool) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && less(h[r], h[l]) {
			m = r
		}
		if !less(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// frPriority hashes a retained span's placement-invariant identity with
// the sampling seed: FNV-1a over the key material, then a splitmix64
// finalizer so consecutive sequences on one track land uniformly. The
// merge epoch is deliberately NOT hashed: per-shard recorders select
// with epoch 0 and the destination re-selects after stamping its own
// epoch, so the priority must be identical before and after the stamp or
// hierarchical selection would disagree with single-collector selection.
// Epoch collisions (the same track and sequence in two merged sub-runs)
// tie on priority and resolve deterministically by the epoch tie-break.
func frPriority(seed uint64, name string, seq uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= seed
	h *= prime64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= seq
	h *= prime64
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
