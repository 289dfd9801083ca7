package sim

import (
	"testing"

	"failstutter/internal/trace"
)

// TestSetTelemetryInstallsPerShardCollectors checks the wiring contract:
// each non-nil sink gets one collector per shard, tracers are
// shard-qualified (distinct instances), and sinks left nil stay off.
func TestSetTelemetryInstallsPerShardCollectors(t *testing.T) {
	ss := NewSharded(3, 1)
	dst := trace.NewTracer()
	reg := trace.NewRegistry()
	ss.SetTelemetry(TelemetrySinks{Tracer: dst, Metrics: reg})
	seen := map[*trace.Tracer]bool{}
	for i := 0; i < 3; i++ {
		tr := ss.ShardTracer(i)
		if tr == nil || tr == dst {
			t.Fatalf("shard %d tracer = %v, want a fresh per-shard collector", i, tr)
		}
		if seen[tr] {
			t.Fatalf("shard %d shares a tracer collector with another shard", i)
		}
		seen[tr] = true
		if ss.ShardMetrics(i) == nil || ss.ShardMetrics(i) == reg {
			t.Fatalf("shard %d metrics collector missing or aliased to the sink", i)
		}
		if ss.ShardAudit(i) != nil {
			t.Fatalf("shard %d has an audit collector with the audit sink off", i)
		}
	}
}

// TestSetTelemetryShardTracersInheritFlightRecorder checks that every
// per-shard tracer takes the destination tracer's flight-recorder bound,
// and none when the destination has none: a merge reproduces the
// single-collector selection only when all of them match, and an
// unbounded shard collector would retain every span of a fleet run.
func TestSetTelemetryShardTracersInheritFlightRecorder(t *testing.T) {
	rc := trace.RecorderConfig{Ring: 8, Reservoir: 4, Seed: 7}
	bounded := trace.NewTracer()
	bounded.SetFlightRecorder(rc)
	for _, dst := range []*trace.Tracer{trace.NewTracer(), bounded} {
		want, wantOK := dst.FlightRecorder()
		ss := NewSharded(3, 1)
		ss.SetTelemetry(TelemetrySinks{Tracer: dst})
		for i := 0; i < 3; i++ {
			got, ok := ss.ShardTracer(i).FlightRecorder()
			if got != want || ok != wantOK {
				t.Fatalf("shard %d recorder = %+v, %v; want %+v, %v as on the destination", i, got, ok, want, wantOK)
			}
		}
	}
	if got, ok := bounded.FlightRecorder(); !ok || got != rc {
		t.Fatalf("destination recorder = %+v, %v; want %+v, true", got, ok, rc)
	}
}

// TestMergeTelemetryFoldsAtMaxClockAndDetaches runs uneven shard-local
// work, merges, and checks: spans from every shard land in the sink, the
// returned fold time is the maximum shard clock (the one end-of-run
// instant that is placement-invariant), and a second call is a no-op —
// the collectors detach on the first fold.
func TestMergeTelemetryFoldsAtMaxClockAndDetaches(t *testing.T) {
	ss := NewSharded(2, 1)
	dst := trace.NewTracer()
	ss.SetTelemetry(TelemetrySinks{Tracer: dst})
	a := NewStation(ss.Shard(0), "a", 1e6)
	b := NewStation(ss.Shard(1), "b", 1e6)
	a.SetTracer(ss.ShardTracer(0))
	b.SetTracer(ss.ShardTracer(1))
	a.SubmitFunc(1e6, nil) // 1 s of service on shard 0
	b.SubmitFunc(3e6, nil) // 3 s of service on shard 1
	ss.Run()
	end := ss.MergeTelemetry()
	if end < 3 {
		t.Fatalf("fold time %v, want the maximum shard clock (>= 3)", end)
	}
	n := dst.Len()
	if n == 0 {
		t.Fatal("merge delivered no spans to the sink tracer")
	}
	names := map[string]bool{}
	for _, sp := range dst.Spans() {
		names[sp.Name] = true
	}
	if !names["service"] {
		t.Fatalf("merged spans missing station activity: %v", names)
	}
	if again := ss.MergeTelemetry(); again != end {
		t.Fatalf("second MergeTelemetry returned %v, want %v (idempotent)", again, end)
	}
	if dst.Len() != n {
		t.Fatalf("second MergeTelemetry changed the sink: %d -> %d spans", n, dst.Len())
	}
	if ss.ShardTracer(0) != nil {
		t.Fatal("shard collectors still attached after MergeTelemetry")
	}
}

// TestShardedUntracedZeroAllocs pins the telemetry-off sharded hot path
// at zero allocations: with no SetTelemetry call, ShardTracer is nil,
// stations take the disabled-tracer branch, and the window loop reuses
// its buffers — submitting and running windows must not allocate once
// the arenas have warmed up. Only one shard carries work so the window
// runs inline; the multi-active case spawns per-window goroutines, a
// cost of the parallel schedule itself, not of telemetry.
func TestShardedUntracedZeroAllocs(t *testing.T) {
	ss := NewSharded(2, 1)
	a := NewStation(ss.Shard(0), "a", 1e6)
	if ss.ShardTracer(0) != nil || ss.ShardMetrics(1) != nil {
		t.Fatal("telemetry collectors present without SetTelemetry")
	}
	for i := 0; i < 4096; i++ { // warm rings, arenas, timer pools, window buffers
		a.SubmitFunc(1, nil)
	}
	limit := 8.0
	ss.RunUntil(limit)
	req := &Request{}
	allocs := testing.AllocsPerRun(500, func() {
		*req = Request{Size: 1}
		a.Submit(req)
		limit++
		ss.RunUntil(limit)
	})
	if allocs != 0 {
		t.Fatalf("telemetry-off sharded submit+window path allocates %v per op, want 0", allocs)
	}
}
