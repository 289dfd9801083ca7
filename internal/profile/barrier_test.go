package profile

import (
	"strings"
	"testing"

	"failstutter/internal/sim"
)

func barrierFixture() *BarrierReport {
	return &BarrierReport{
		Experiment: "E99",
		Runs: []BarrierRun{
			{
				Run: "balanced", Shards: 4,
				BarrierStats: sim.BarrierStats{
					Windows: 10, Fired: 400, Delivered: 100, SoloWindows: 1, MaxWindowFired: 80,
					WindowNanos: 900, DeliverNanos: 30, SweepNanos: 70,
				},
				PerShardFired: []uint64{100, 100, 100, 100},
			},
			{
				Run: "skewed", Shards: 2,
				BarrierStats: sim.BarrierStats{
					Windows: 5, Fired: 100, Delivered: 0, SoloWindows: 5, MaxWindowFired: 40,
				},
				PerShardFired: []uint64{90, 10},
			},
		},
	}
}

func TestBarrierRunDerivedMetrics(t *testing.T) {
	r := barrierFixture()
	b := &r.Runs[0]
	if got := b.EventsPerWindow(); got != 40 {
		t.Errorf("events per window %v, want 40", got)
	}
	if got := b.CrossShardFrac(); got != 0.25 {
		t.Errorf("cross-shard fraction %v, want 0.25", got)
	}
	if got := b.Imbalance(); got != 1 {
		t.Errorf("balanced imbalance %v, want 1", got)
	}
	if got := b.BarrierFrac(); got != 0.1 {
		t.Errorf("barrier fraction %v, want 0.1", got)
	}
	if got, want := b.DeliverFrac(), 0.3; got != want {
		t.Errorf("merge share of the barrier %v, want %v", got, want)
	}
	if got, want := b.SweepFrac(), 0.7; got != want {
		t.Errorf("sweep share of the barrier %v, want %v", got, want)
	}
	s := &r.Runs[1]
	if got := s.Imbalance(); got != 1.8 {
		t.Errorf("skewed imbalance %v, want 1.8 (90 over mean 50)", got)
	}
	if got := s.BarrierFrac(); got != 0 {
		t.Errorf("untimed run barrier fraction %v, want 0", got)
	}
	var zero BarrierRun
	if zero.EventsPerWindow() != 0 || zero.CrossShardFrac() != 0 || zero.Imbalance() != 0 {
		t.Error("zero-value run must report zero derived metrics, not NaN")
	}
}

// TestBarrierReportJSONDeterministic checks the artifact is stable
// across writes and excludes the wall-clock nanosecond fields — the one
// nondeterministic part of the profile.
func TestBarrierReportJSONDeterministic(t *testing.T) {
	r := barrierFixture()
	var s1, s2 strings.Builder
	if err := r.WriteJSON(&s1); err != nil {
		t.Fatal(err)
	}
	jittered := barrierFixture()
	jittered.Runs[0].WindowNanos = 123456
	jittered.Runs[0].DeliverNanos = 654321
	if err := jittered.WriteJSON(&s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatalf("wall-clock nanos leaked into the deterministic artifact:\n%s\nvs\n%s", s1.String(), s2.String())
	}
	if !strings.Contains(s1.String(), `"schema":"fstutter-barrier/1"`) {
		t.Fatalf("schema tag missing:\n%s", s1.String())
	}
	if !strings.Contains(s1.String(), `"per_shard_fired":[100,100,100,100]`) {
		t.Fatalf("per-shard counts missing:\n%s", s1.String())
	}
}

func TestBarrierReportText(t *testing.T) {
	r := barrierFixture()
	var s strings.Builder
	if err := r.WriteText(&s); err != nil {
		t.Fatal(err)
	}
	out := s.String()
	for _, want := range []string{"barrier profile: E99", "balanced", "skewed", "10.0%", "25.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}
