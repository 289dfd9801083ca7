package trace

import (
	"math"
	"sync"
)

// SpanID identifies one recorded span. The zero value means "no span" and
// is safe to End, parent from, or carry through request structs: every
// Tracer method treats it as a no-op, so call sites only need a single
// nil-tracer check to stay allocation-free when tracing is off.
//
// A shard collector (NewShardTracer) qualifies its ids with the shard
// index in the bits above localIDBits, so ids allocated by different
// shards never collide and Merge can remap parent links globally. Plain
// tracers keep the qualifier zero, leaving their ids — and every golden
// artifact recorded through them — unchanged.
type SpanID int64

const (
	// localIDBits is the width of a collector's local span index; the
	// shard qualifier occupies the bits above it.
	localIDBits = 40
	localIDMask = SpanID(1)<<localIDBits - 1
)

// TrackID identifies one timeline (a station, a disk, a cluster worker) in
// the exported trace. Tracks are registered once per component via Track
// and cached by the component, so the per-span hot path never touches the
// name table.
type TrackID int32

// Span is one recorded interval (or instant) on a track, in the tracer's
// time base: the simulator's virtual seconds.
type Span struct {
	ID     SpanID
	Parent SpanID // 0 = no parent
	Track  TrackID
	Name   string
	Cat    string
	Start  float64
	End    float64 // NaN while the span is still open
	Arg    int64   // caller payload (block number, task id); valid when HasArg
	HasArg bool
	// Instant marks a zero-duration marker event rather than an interval.
	Instant bool
}

// Open reports whether the span has not been ended yet.
func (s Span) Open() bool { return !s.Instant && math.IsNaN(s.End) }

// Tracer records causal spans. Each collector has one writer per window:
// a serial simulator's tracer is written by its one event loop, and a
// sharded run gives every shard its own collector (NewShardTracer), which
// only that shard's window writes. The mutex stays as a safety net, so
// every method is still safe for concurrent use; uncontended, it costs
// one lock per span.
//
// All methods are nil-receiver safe as a backstop, but hot paths should
// guard with an explicit `if tracer != nil` so the disabled path costs one
// predictable branch and zero allocations.
type Tracer struct {
	mu      sync.Mutex
	spans   []Span
	tracks  []string
	trackIx map[string]TrackID
	// offset is added to every recorded time: experiments that run several
	// independent simulations (each restarting at t=0) rebase between runs
	// so the exported timeline lays the runs out end to end.
	offset float64
	// qual is OR-ed into every allocated span id: zero for a plain tracer,
	// (shard+1)<<localIDBits for a per-shard collector.
	qual SpanID
	// fr, when non-nil, puts the tracer in flight-recorder mode: open
	// spans are tracked exactly, completed spans pass through a bounded
	// deterministic selection instead of being retained wholesale.
	fr *flightRecorder
}

// NewTracer builds an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{trackIx: make(map[string]TrackID)}
}

// NewShardTracer builds a per-shard collector: a tracer whose span ids
// carry shard+1 in their high bits, so ids allocated concurrently by
// different shards' collectors are globally unique and Merge can stitch
// parent links across them.
func NewShardTracer(shard int) *Tracer {
	if shard < 0 {
		panic("trace: shard index must be non-negative")
	}
	t := NewTracer()
	t.qual = SpanID(shard+1) << localIDBits
	return t
}

// Track returns the track id for the given name, registering it on first
// use. Equal names share a track, so a device and its underlying station
// can interleave spans on one timeline. On a nil tracer it returns 0.
func (t *Tracer) Track(name string) TrackID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trackLocked(name)
}

// trackLocked is Track with t.mu already held.
func (t *Tracer) trackLocked(name string) TrackID {
	if id, ok := t.trackIx[name]; ok {
		return id
	}
	id := TrackID(len(t.tracks))
	t.tracks = append(t.tracks, name)
	t.trackIx[name] = id
	return id
}

// Tracks returns the registered track names in registration order.
func (t *Tracer) Tracks() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.tracks))
	copy(out, t.tracks)
	return out
}

// Begin opens a span at the given time and returns its id. parent may be
// 0 for a root span.
func (t *Tracer) Begin(track TrackID, name, cat string, parent SpanID, start float64) SpanID {
	if t == nil {
		return 0
	}
	return t.begin(track, name, cat, parent, start, 0, false)
}

// BeginArg is Begin with an integer payload (a block number, a task id)
// exported in the span's args.
func (t *Tracer) BeginArg(track TrackID, name, cat string, parent SpanID, start float64, arg int64) SpanID {
	if t == nil {
		return 0
	}
	return t.begin(track, name, cat, parent, start, arg, true)
}

func (t *Tracer) begin(track TrackID, name, cat string, parent SpanID, start float64, arg int64, hasArg bool) SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fr != nil {
		return t.qual | t.fr.begin(track, name, cat, start+t.offset, arg, hasArg)
	}
	id := t.qual | SpanID(len(t.spans)+1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Track: track, Name: name, Cat: cat,
		Start: start + t.offset, End: math.NaN(), Arg: arg, HasArg: hasArg,
	})
	return id
}

// End closes the span at the given time. Ending span 0, an unknown span,
// or an already-closed span is a no-op, so completion callbacks never need
// to know whether tracing was on when their request was issued.
func (t *Tracer) End(id SpanID, end float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id&^localIDMask != t.qual {
		// Another collector's id: never ours to close.
		return
	}
	if t.fr != nil {
		t.fr.end(id&localIDMask, end+t.offset, t.tracks)
		return
	}
	i := int(id&localIDMask) - 1
	if i < 0 || i >= len(t.spans) || !math.IsNaN(t.spans[i].End) {
		return
	}
	t.spans[i].End = end + t.offset
}

// Instant records a zero-duration marker event (a failure, a repair, a
// producer stall) on the track.
func (t *Tracer) Instant(track TrackID, name, cat string, at float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at += t.offset
	if t.fr != nil {
		t.fr.instant(track, name, cat, at, t.tracks)
		return
	}
	id := t.qual | SpanID(len(t.spans)+1)
	t.spans = append(t.spans, Span{
		ID: id, Track: track, Name: name, Cat: cat,
		Start: at, End: at, Instant: true,
	})
}

// Flush closes every still-open span at the given time — requests
// abandoned by a failing station, or in flight when a run halts, would
// otherwise export with an undefined duration.
func (t *Tracer) Flush(now float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := now + t.offset
	if t.fr != nil {
		t.fr.flush(end, t.tracks)
		return
	}
	for i := range t.spans {
		if math.IsNaN(t.spans[i].End) {
			t.spans[i].End = end
		}
	}
}

// Rebase shifts the time base for all subsequent spans forward to at
// (in already-rebased trace time). Experiments running several
// simulations in sequence call Flush(end) then Rebase(end+gap) so each
// sub-run occupies its own stretch of the exported timeline instead of
// overlaying the others at t=0.
func (t *Tracer) Rebase(at float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.offset = at
}

// Len returns the number of retained spans (including instants): every
// recorded span for a plain tracer, the bounded selection for a
// flight-recorder tracer (see Recorded for the exact recorded count).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fr != nil {
		return len(t.fr.snapshot(t.tracks))
	}
	return len(t.spans)
}

// Spans returns a copy of the retained spans: record order for a plain
// tracer; for a flight-recorder tracer, the retained selection in
// canonical (start, track name, begin sequence) order with dense ids and
// parent links cut (sampling cannot promise the parent survived).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fr != nil {
		ents := t.fr.snapshot(t.tracks)
		out := make([]Span, len(ents))
		for i, e := range ents {
			sp := e.span
			sp.ID = SpanID(i + 1)
			sp.Parent = 0
			out[i] = sp
		}
		return out
	}
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Recorded returns the total spans and instants ever recorded, counting
// spans a flight recorder later dropped. Equal to Len for a plain tracer.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fr != nil {
		return t.fr.recorded
	}
	return uint64(len(t.spans))
}
