package trace

import "fmt"

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
	t.fr = &flightRecorder{
		cfg:  cfg,
		ring: frSelection{bound: cfg.Ring},
		res:  frSelection{bound: cfg.Reservoir, byPrio: true},
	}
}

// FlightRecorder returns the tracer's flight-recorder bound and whether
// one is set. Collectors merged into this tracer must be bounded the same
// way for the merge to reproduce single-collector selection, so per-shard
// collectors take their bound from here. A nil tracer reports none.
func (t *Tracer) FlightRecorder() (RecorderConfig, bool) {
	if t == nil {
		return RecorderConfig{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fr == nil {
		return RecorderConfig{}, false
	}
	return t.fr.cfg, true
}

const (
	// frSlotBits splits a flight-recorder local id into an arena slot
	// (low bits) and a reuse generation (the bits up to localIDBits), so
	// a stale End cannot close a recycled slot.
	frSlotBits = 24
	frSlotMask = SpanID(1)<<frSlotBits - 1
	frMaxSlots = 1<<frSlotBits - 2
	// frChunkBits sizes the open-span arena's chunks (1024 slots). The
	// arena grows a chunk at a time, so it allocates each slot once and
	// growth never copies the slots already handed out.
	frChunkBits = 10
	frChunkMask = 1<<frChunkBits - 1
)

// frOpen is one in-flight span slot in the recorder's arena. It holds
// only what an open span needs: the end time arrives with End, and a
// flight recorder exports neither span ids nor parent links.
type frOpen struct {
	name, cat string
	start     float64
	arg       int64
	seq       uint64
	track     TrackID
	gen       uint16
	hasArg    bool
	live      bool
}

// frEntry is one retained completion: the exported span fields plus the
// placement-invariant keys the selections and the merge are ordered by —
// the resolved track name (with nameKey, its first eight bytes as an
// integer), the span's begin sequence on that track, the merge epoch
// (which sub-run fed it into a destination recorder) and the reservoir
// priority.
type frEntry struct {
	trackName  string
	name, cat  string
	start, end float64
	arg        int64
	nameKey    uint64
	seq, prio  uint64
	track      TrackID
	epoch      uint32
	hasArg     bool
	instant    bool
}

// frNameKey packs the first eight bytes of a track name big-endian,
// zero-padded. Keys order like the names wherever they differ, so the
// selection orders compare names as integers and fall back to the
// string only when the keys tie (names sharing eight leading bytes, or
// a name and its zero-padded prefix).
func frNameKey(name string) uint64 {
	var k uint64
	for i := 0; i < 8; i++ {
		k <<= 8
		if i < len(name) {
			k |= uint64(name[i])
		}
	}
	return k
}

// exported returns the entry as a merge entry with its Span (id and
// parent zero).
func (e *frEntry) exported() spanEntry {
	return spanEntry{
		span: Span{
			Track: e.track, Name: e.name, Cat: e.cat, Start: e.start, End: e.end,
			Arg: e.arg, HasArg: e.hasArg, Instant: e.instant,
		},
		name: e.trackName, seq: e.seq, epoch: e.epoch,
	}
}

// frSelection keeps the bound best completions retired into it, under
// the recency order for the ring and the priority order for the
// reservoir. Entries are retired into buf in batches. One that does not
// beat the cut — the worst of the bound entries kept at the last
// compaction — is outranked by bound retained entries, can never be
// selected, and is dropped at once; the rest are appended, and when buf
// reaches 2·bound one quickselect keeps the bound best. Both orders are
// strict total orders on distinct retirements, so the kept set is a pure
// function of the retired multiset, whatever the retire order or batch
// boundaries.
type frSelection struct {
	bound  int
	byPrio bool // reservoir order (frResLess) rather than recency
	buf    []frEntry
	idx    []int32 // compaction scratch
	cut    frEntry
	hasCut bool
}

// better reports whether a outranks b in the selection's order.
func (s *frSelection) better(a, b *frEntry) bool {
	if s.byPrio {
		return frResLess(a, b)
	}
	return frRingLess(b, a)
}

// offer retires e into the selection, compacting when the buffer fills.
// The buffer and its index scratch are allocated once, at their full
// 2·bound.
func (s *frSelection) offer(e *frEntry) {
	if s.hasCut && !s.better(e, &s.cut) {
		return
	}
	if s.buf == nil {
		s.buf = make([]frEntry, 0, 2*s.bound)
		s.idx = make([]int32, 2*s.bound)
	}
	s.buf = append(s.buf, *e)
	if len(s.buf) == 2*s.bound {
		s.compact()
	}
}

// compact cuts buf to its bound best entries and records the worst of
// them as the new cut. Entries are compared in place through int32
// indices, never copied by value; only the kept entries that sit past
// the bound move, each into a dropped entry's slot.
func (s *frSelection) compact() {
	n, k := len(s.buf), s.bound
	if n <= k {
		return
	}
	idx := s.idx[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	s.selectBest(idx, k-1)
	s.cut = s.buf[idx[k-1]]
	s.hasCut = true
	// Dropped slots below k (in idx[k:]) and kept entries at or past k
	// (in idx[:k]) are equal in number: pair them up in scan order.
	q := 0
	for _, hole := range idx[k:] {
		if int(hole) >= k {
			continue
		}
		for int(idx[q]) < k {
			q++
		}
		s.buf[hole] = s.buf[idx[q]]
		q++
	}
	s.buf = s.buf[:k]
}

// selectBest partially orders idx so that idx[k] indexes the entry of
// rank k (0 = best), the entries before it outrank it and those after it
// do not. Quickselect with a median-of-three pivot, as stats.Select:
// expected O(len(idx)) comparisons.
func (s *frSelection) selectBest(idx []int32, k int) {
	b := s.buf
	lo, hi := 0, len(idx)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s.better(&b[idx[mid]], &b[idx[lo]]) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if s.better(&b[idx[hi]], &b[idx[lo]]) {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if s.better(&b[idx[hi]], &b[idx[mid]]) {
			idx[hi], idx[mid] = idx[mid], idx[hi]
		}
		pivot := &b[idx[mid]]
		i, j := lo, hi
		for i <= j {
			for s.better(&b[idx[i]], pivot) {
				i++
			}
			for s.better(pivot, &b[idx[j]]) {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// flightRecorder holds the bounded retention state. All methods run
// under the owning Tracer's mutex.
type flightRecorder struct {
	cfg RecorderConfig

	// open is the arena of in-flight span slots, in chunks; slots counts
	// the slots handed out so far and free the ones to reuse.
	open  [][]frOpen
	slots int32
	free  []int32
	// trackSeq numbers each track's begins — the placement-invariant
	// per-track sequence every selection key is built on.
	trackSeq []uint64

	// ring selects the cfg.Ring most recent completions and res the
	// cfg.Reservoir lowest priorities.
	ring, res frSelection

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

// slot returns arena slot i.
func (f *flightRecorder) slot(i int32) *frOpen {
	return &f.open[i>>frChunkBits][i&frChunkMask]
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
		if f.slots > frMaxSlots {
			panic(fmt.Sprintf("trace: flight recorder exceeds %d concurrently open spans", frMaxSlots))
		}
		if int(f.slots>>frChunkBits) == len(f.open) {
			f.open = append(f.open, make([]frOpen, 1<<frChunkBits))
		}
		slot = f.slots
		f.slots++
	}
	o := f.slot(slot)
	*o = frOpen{
		name: name, cat: cat, start: start, arg: arg, seq: seq,
		track: track, gen: o.gen + 1, hasArg: hasArg, live: true,
	}
	return SpanID(uint64(o.gen))<<frSlotBits | SpanID(slot+1)
}

// end closes the open span with the given local id, retiring it through
// the selections. Unknown, stale, or already-closed ids are no-ops,
// matching the plain tracer's End contract. end is offset-adjusted.
func (f *flightRecorder) end(local SpanID, end float64, tracks []string) {
	slot := int64(local&frSlotMask) - 1
	if slot < 0 || slot >= int64(f.slots) {
		return
	}
	o := f.slot(int32(slot))
	if !o.live || uint16(local>>frSlotBits) != o.gen {
		return
	}
	f.close(o, end, tracks)
	f.free = append(f.free, int32(slot))
}

// close retires the open span o with the given end time and releases
// its strings; the caller frees the slot.
func (f *flightRecorder) close(o *frOpen, end float64, tracks []string) {
	o.live = false
	f.retire(&frEntry{
		trackName: tracks[o.track], name: o.name, cat: o.cat,
		start: o.start, end: end, arg: o.arg, seq: o.seq,
		track: o.track, epoch: f.epoch, hasArg: o.hasArg,
	})
	o.name, o.cat = "", ""
}

// instant records and immediately retires a marker event. at is
// offset-adjusted.
func (f *flightRecorder) instant(track TrackID, name, cat string, at float64, tracks []string) {
	f.recorded++
	f.retire(&frEntry{
		trackName: tracks[track], name: name, cat: cat, start: at, end: at,
		seq: f.nextSeq(track), track: track, epoch: f.epoch, instant: true,
	})
}

// flush retires every open span at the given (offset-adjusted) end time.
func (f *flightRecorder) flush(end float64, tracks []string) {
	for slot := int32(0); slot < f.slots; slot++ {
		if o := f.slot(slot); o.live {
			f.close(o, end, tracks)
			f.free = append(f.free, slot)
		}
	}
}

// retire feeds one completion through both selections.
func (f *flightRecorder) retire(e *frEntry) {
	e.nameKey = frNameKey(e.trackName)
	if f.cfg.Ring > 0 {
		f.ring.offer(e)
	}
	if f.cfg.Reservoir > 0 {
		e.prio = frPriority(f.cfg.Seed, e.trackName, e.seq)
		f.res.offer(e)
	}
}

// retained compacts both selections and visits ring ∪ reservoir once
// each: the ring, then every reservoir entry the ring does not hold.
// After compaction the ring holds exactly the min(Ring, retired) most
// recent completions, so a reservoir entry is in it exactly when it is
// not older than the ring's least recent entry.
func (f *flightRecorder) retained(visit func(e *frEntry)) {
	f.ring.compact()
	f.res.compact()
	ring := f.ring.buf
	var oldest *frEntry
	for i := range ring {
		visit(&ring[i])
		if oldest == nil || frRingLess(&ring[i], oldest) {
			oldest = &ring[i]
		}
	}
	for i := range f.res.buf {
		if e := &f.res.buf[i]; oldest == nil || frRingLess(e, oldest) {
			visit(e)
		}
	}
}

// retainedLen counts the retained selection without building it.
func (f *flightRecorder) retainedLen() int {
	n := 0
	f.retained(func(*frEntry) { n++ })
	return n
}

// snapshot returns the retained selection — ring ∪ reservoir — in
// canonical (start, track name, begin sequence, epoch) order.
func (f *flightRecorder) snapshot() []spanEntry {
	out := make([]spanEntry, 0, len(f.ring.buf)+len(f.res.buf))
	f.retained(func(e *frEntry) { out = append(out, e.exported()) })
	sortEntries(out)
	return out
}

// frRingLess is the recency total order: by end time, then track name,
// then the track's begin sequence, then epoch. Strict for distinct
// retained spans — two spans on one track never share a sequence.
func frRingLess(a, b *frEntry) bool {
	if a.end != b.end {
		return a.end < b.end
	}
	if a.nameKey != b.nameKey {
		return a.nameKey < b.nameKey
	}
	if a.trackName != b.trackName {
		return a.trackName < b.trackName
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.epoch < b.epoch
}

// frResLess is the reservoir total order: ascending hashed priority with
// the same deterministic tie-break chain.
func frResLess(a, b *frEntry) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	if a.nameKey != b.nameKey {
		return a.nameKey < b.nameKey
	}
	if a.trackName != b.trackName {
		return a.trackName < b.trackName
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.epoch < b.epoch
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
