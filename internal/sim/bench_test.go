package sim

import (
	"testing"

	"failstutter/internal/trace"
)

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, func() {})
		if s.Pending() > 1024 {
			s.Run()
		}
	}
	s.Run()
}

func BenchmarkEventChain(b *testing.B) {
	s := New()
	n := 0
	var next func()
	next = func() {
		n++
		if n < b.N {
			s.After(0.001, next)
		}
	}
	s.After(0, next)
	b.ResetTimer()
	s.Run()
}

func BenchmarkStationThroughput(b *testing.B) {
	s := New()
	st := NewStation(s, "bench", 1e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.SubmitFunc(1, nil)
		if st.QueueLen() > 1024 {
			s.Run()
		}
	}
	s.Run()
}

func BenchmarkStationRateChanges(b *testing.B) {
	s := New()
	st := NewStation(s, "bench", 1e6)
	st.SubmitFunc(float64(b.N)+1e9, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.SetMultiplier(0.5 + float64(i%2)/2)
	}
}

// BenchmarkSchedule measures the steady-state cost of scheduling one event
// that later fires: the kernel's hottest path. With the event arena this
// must run at 0 allocs/op once the arena has warmed up.
func BenchmarkSchedule(b *testing.B) {
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, func() {})
		if s.Pending() > 1024 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkTimerStop measures schedule-then-cancel churn, the pattern
// Station.reschedule generates on every rate change.
func BenchmarkTimerStop(b *testing.B) {
	s := New()
	timers := make([]Timer, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timers = append(timers, s.After(float64(i%64)+1, func() {}))
		if len(timers) == cap(timers) {
			for _, tm := range timers {
				tm.Stop()
			}
			timers = timers[:0]
			s.Run()
		}
	}
	b.StopTimer()
	for _, tm := range timers {
		tm.Stop()
	}
	s.Run()
}

// BenchmarkStationPipeline measures a deep FCFS queue draining end to end:
// the switch and RAID experiments push thousands of queued requests through
// a station, so dequeue cost dominates.
func BenchmarkStationPipeline(b *testing.B) {
	s := New()
	st := NewStation(s, "bench", 1e6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.SubmitFunc(1, nil)
		if st.QueueLen() >= 4096 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkStationPipelineTraced is BenchmarkStationPipeline with a span
// tracer attached — the enabled-cost comparison for the observability
// plane. The tracer is swapped out at each drain so accumulated spans
// don't dominate memory at large b.N; compare against the untraced
// benchmark for the per-request overhead of recording queue/service spans.
func BenchmarkStationPipelineTraced(b *testing.B) {
	s := New()
	st := NewStation(s, "bench", 1e6)
	st.SetTracer(trace.NewTracer())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.SubmitFunc(1, nil)
		if st.QueueLen() >= 4096 {
			s.Run()
			st.SetTracer(trace.NewTracer())
		}
	}
	s.Run()
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkRNGNorm(b *testing.B) {
	r := NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm(0, 1)
	}
	_ = sink
}

// benchSharded drives a fixed fleet of event chains through a sharded
// kernel; the workload is independent per component, so every window runs
// all shards in parallel. Reported per executed event.
func benchSharded(b *testing.B, shards int) {
	const components = 256
	ss := NewSharded(shards, 1.0)
	root := NewRNG(9)
	per := b.N/components + 1
	for c := 0; c < components; c++ {
		name := benchName(c)
		rng := root.Fork(name)
		sh := ss.Shard(ss.ShardFor(name))
		var step func()
		n := 0
		step = func() {
			if n++; n < per {
				sh.After(0.01+rng.Float64(), step)
			}
		}
		sh.At(rng.Float64(), step)
	}
	b.ResetTimer()
	ss.Run()
	b.StopTimer()
	if fired := ss.EventsFired(); fired < uint64(b.N) {
		b.Fatalf("fired %d events, want at least %d", fired, b.N)
	}
}

func benchName(c int) string { return "comp" + string(rune('a'+c/26%26)) + string(rune('a'+c%26)) }

func BenchmarkShardedEventChain1(b *testing.B) { benchSharded(b, 1) }
func BenchmarkShardedEventChain4(b *testing.B) { benchSharded(b, 4) }

// benchHold is the hold model at the fleet's scale: 2^17 events stay
// pending, and every firing reschedules itself after delay(). Reported
// per fired event.
func benchHold(b *testing.B, delay func() Duration) {
	const pending = 1 << 17
	s := New()
	fired := 0
	var fire func()
	fire = func() {
		if fired++; fired == b.N {
			s.Stop()
		}
		s.After(delay(), fire)
	}
	for i := 0; i < pending; i++ {
		s.After(delay(), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkHoldTies is the fleet's regime: every firing reschedules
// itself 0.5 s later, so all 2^17 pending events share a handful of exact
// times — a healthy disk's completions on E32's 0.5 s grid — and each new
// event chains behind the previous one instead of entering the heap.
func BenchmarkHoldTies(b *testing.B) { benchHold(b, func() Duration { return 0.5 }) }

// BenchmarkHoldRandom reschedules each firing at a random offset, so no
// two events tie and every pending event is a heap entry of its own.
func BenchmarkHoldRandom(b *testing.B) {
	rng := NewRNG(17)
	benchHold(b, rng.Float64)
}
