package trace

import (
	"slices"
	"testing"
)

// fuzzMaxOps bounds one FuzzFlightRecorder program: enough retirements
// to compact bounds up to 8 many times over, few enough that the
// sort-everything reference stays fast.
const fuzzMaxOps = 160

// fuzzTracks are the track names a FuzzFlightRecorder program records
// on: few, so per-track sequences grow and end times tie across tracks,
// and chosen so the first eight bytes tie ("ab", "ab\x00";
// "track-00000001", "track-00000002") and the selection orders must fall
// back to whole names.
var fuzzTracks = []string{"ab", "track-00000002", "ab\x00", "z", "track-00000001"}

// frProgram reads a FuzzFlightRecorder program's bytes; an exhausted
// program reads as zeros.
type frProgram struct{ b []byte }

func (r *frProgram) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// grid reads a time on a 0.5 s grid in [0, 3.5], so times tie often.
func (r *frProgram) grid() float64 { return 0.5 * float64(r.next()%8) }

// frOpenSpan is one span a FuzzFlightRecorder program has begun and not
// yet ended: its id on the single recorder and on its track's shard,
// and its reference record so far.
type frOpenSpan struct {
	single, shard SpanID
	shardIx       int
	rec           frRecord
}

// FuzzFlightRecorder decodes its input as Ring and Reservoir bounds in
// 0..8 (not both 0), a shard count in 1..4 and a reservoir seed, then a
// program of begins, ends, instants and Len/Spans calls over a few
// tracks with times on a 0.5 s grid. It runs the program on one flight
// recorder and, with each track on shard index%k, on k per-shard
// recorders. At every Len/Spans op and after a final Flush it checks the
// single recorder's selection and Len against the keep-everything
// reference (frReference); the Len/Spans ops also compact the per-shard
// recorders mid-stream. At the end the shards are merged into a fresh
// flight-recorder destination, whose selection, Len and Recorded must
// match too. The seed corpus under testdata/fuzz/FuzzFlightRecorder
// replays on every go test run.
func FuzzFlightRecorder(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		p := &frProgram{b: in}
		cfg := RecorderConfig{Ring: int(p.next() % 9), Reservoir: int(p.next() % 9)}
		if cfg.Ring == 0 && cfg.Reservoir == 0 {
			return
		}
		k := 1 + int(p.next()%4)
		cfg.Seed = uint64(p.next())

		single := NewTracer()
		single.SetFlightRecorder(cfg)
		shards := make([]*Tracer, k)
		for i := range shards {
			shards[i] = NewShardTracer(i)
			shards[i].SetFlightRecorder(cfg)
		}
		ids := make([]TrackID, len(fuzzTracks))
		shardIDs := make([]TrackID, len(fuzzTracks))
		for i, name := range fuzzTracks {
			ids[i] = single.Track(name)
			shardIDs[i] = shards[i%k].Track(name)
		}
		seqs := make([]uint64, len(fuzzTracks))
		var open []frOpenSpan
		var all []frRecord

		for op := 0; len(p.b) > 0 && op < fuzzMaxOps; op++ {
			c := p.next()
			switch c % 5 {
			case 0, 1: // begin
				tk := int(p.next()) % len(fuzzTracks)
				at := p.grid()
				name := []string{"queue", "service"}[c>>3&1]
				hasArg, arg := c&0x10 != 0, int64(0)
				if hasArg {
					arg = int64(c >> 5)
				}
				s := frOpenSpan{shardIx: tk % k, rec: frRecord{
					view: frView{fuzzTracks[tk], name, "station", at, 0, arg, hasArg, false},
					seq:  seqs[tk],
				}}
				seqs[tk]++
				if hasArg {
					s.single = single.BeginArg(ids[tk], name, "station", 0, at, arg)
					s.shard = shards[s.shardIx].BeginArg(shardIDs[tk], name, "station", 0, at, arg)
				} else {
					s.single = single.Begin(ids[tk], name, "station", 0, at)
					s.shard = shards[s.shardIx].Begin(shardIDs[tk], name, "station", 0, at)
				}
				open = append(open, s)
			case 2: // end
				if len(open) == 0 {
					continue
				}
				i := int(p.next()) % len(open)
				s := open[i]
				open = slices.Delete(open, i, i+1)
				at := p.grid()
				single.End(s.single, at)
				shards[s.shardIx].End(s.shard, at)
				s.rec.view.End = at
				all = append(all, s.rec)
			case 3: // instant
				tk := int(p.next()) % len(fuzzTracks)
				at := p.grid()
				single.Instant(ids[tk], "mark", "station", at)
				shards[tk%k].Instant(shardIDs[tk], "mark", "station", at)
				all = append(all, frRecord{view: frView{fuzzTracks[tk], "mark", "station", at, at, 0, false, true}, seq: seqs[tk]})
				seqs[tk]++
			case 4: // compact mid-stream, checking the single recorder
				frCheck(t, single, cfg, all)
				for _, s := range shards[:int(c>>3)%k+1] {
					s.Len()
				}
			}
		}

		const flushAt = 4.0
		single.Flush(flushAt)
		for _, s := range shards {
			s.Flush(flushAt)
		}
		for _, s := range open {
			s.rec.view.End = flushAt
			all = append(all, s.rec)
		}
		frCheck(t, single, cfg, all)
		if got := single.Recorded(); got != uint64(len(all)) {
			t.Fatalf("Recorded = %d, want %d", got, len(all))
		}
		merged := NewTracer()
		merged.SetFlightRecorder(cfg)
		merged.Merge(shards...)
		frCheck(t, merged, cfg, all)
		if merged.Recorded() != single.Recorded() {
			t.Fatalf("merged Recorded = %d, single = %d", merged.Recorded(), single.Recorded())
		}
	})
}
