package experiments

import (
	"fmt"
	"testing"
)

// TestFleetSweepWorkerInvariant is the tentpole's determinism matrix:
// E32's table and telemetry artifacts must be byte-identical across
// sweep worker counts 1, 2, and 8 at every shard count and seed in the
// spread. The worker count may only trade wall-clock for cores — any
// divergence means the parallel sweep's reductions leaked goroutine
// order into the results.
func TestFleetSweepWorkerInvariant(t *testing.T) {
	e, err := Get("E32")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 42, 1337} {
		for _, shards := range []int{1, 2, 8} {
			run := func(workers int) (string, string, string) {
				cfg := Config{
					Seed: seed, Quick: true, Trace: true, Audit: true, Metrics: true,
					Shards: shards, SweepWorkers: workers,
				}
				tbl := e.Run(cfg)
				art := telemetryArtifacts(t, tbl)
				if art == "" {
					t.Fatalf("seed %d shards %d workers %d: E32 produced no telemetry artifacts",
						seed, shards, workers)
				}
				return tbl.Format(), tbl.CSV(), art
			}
			refFmt, refCSV, refArt := run(1)
			for _, workers := range []int{2, 8} {
				gotFmt, gotCSV, gotArt := run(workers)
				if gotFmt != refFmt {
					t.Errorf("seed %d shards %d: E32 table differs between -sweep-workers=1 and =%d:\n--- w=1 ---\n%s\n--- w=%d ---\n%s",
						seed, shards, workers, refFmt, workers, gotFmt)
				}
				if gotCSV != refCSV {
					t.Errorf("seed %d shards %d: E32 CSV differs between -sweep-workers=1 and =%d",
						seed, shards, workers)
				}
				if gotArt != refArt {
					t.Errorf("seed %d shards %d: E32 telemetry artifacts differ between -sweep-workers=1 and =%d (%d vs %d bytes)",
						seed, shards, workers, len(refArt), len(gotArt))
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestFleetScenarioSweepWorkerInvariant checks RunFleetScenario's result
// struct directly across the workers x shards grid, including worker and
// shard counts that do not divide the fleet evenly.
func TestFleetScenarioSweepWorkerInvariant(t *testing.T) {
	for _, seed := range []uint64{1, 42, 1337} {
		ref := RunFleetScenario(FleetParams{Disks: 2048, Shards: 1, Seed: seed, SweepWorkers: 1})
		if ref.InjectedStutter+ref.InjectedFail == 0 {
			t.Fatalf("seed %d: no faults injected — fleet too small to exercise detection", seed)
		}
		for _, shards := range []int{1, 3, 8} {
			for _, workers := range []int{2, 3, 8} {
				got := RunFleetScenario(FleetParams{
					Disks: 2048, Shards: shards, Seed: seed, SweepWorkers: workers,
				})
				if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", ref) {
					t.Errorf("seed %d: fleet result differs at shards=%d workers=%d:\n ref: %+v\n got: %+v",
						seed, shards, workers, ref, got)
				}
			}
		}
	}
}
