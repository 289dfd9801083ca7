package experiments

import (
	"bytes"
	"fmt"
	"testing"
)

// telemetryArtifacts renders every telemetry artifact the CLI would write
// for one table — Chrome trace JSON, metrics JSON and CSV, audit JSON —
// concatenated into one byte string for equality checks.
func telemetryArtifacts(t *testing.T, tbl *Table) string {
	t.Helper()
	tel := tbl.Telemetry
	if tel == nil {
		return "" // not every experiment attaches telemetry
	}
	var buf bytes.Buffer
	if tel.Tracer != nil {
		if err := tel.Tracer.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("trace export: %v", err)
		}
	}
	if tel.Metrics != nil {
		if err := tel.Metrics.WriteJSON(&buf); err != nil {
			t.Fatalf("metrics JSON export: %v", err)
		}
		if err := tel.Metrics.WriteCSV(&buf); err != nil {
			t.Fatalf("metrics CSV export: %v", err)
		}
	}
	if tel.Audit != nil {
		if err := tel.Audit.WriteJSON(&buf); err != nil {
			t.Fatalf("audit export: %v", err)
		}
	}
	return buf.String()
}

// TestFleetShardCountInvariant asserts the sharded kernel's core
// contract on the fleet experiment: E32's table AND its telemetry
// artifacts are byte-identical at shard counts 1, 2, and 8, for several
// seeds. The shard count may only trade wall-clock for cores.
func TestFleetShardCountInvariant(t *testing.T) {
	e, err := Get("E32")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 42, 1337} {
		run := func(shards int) (string, string, string) {
			cfg := Config{Seed: seed, Quick: true, Trace: true, Audit: true, Metrics: true, Shards: shards}
			tbl := e.Run(cfg)
			art := telemetryArtifacts(t, tbl)
			if art == "" {
				t.Fatalf("seed %d shards %d: E32 produced no telemetry artifacts", seed, shards)
			}
			return tbl.Format(), tbl.CSV(), art
		}
		refFmt, refCSV, refArt := run(1)
		for _, shards := range []int{2, 8} {
			gotFmt, gotCSV, gotArt := run(shards)
			if gotFmt != refFmt {
				t.Errorf("seed %d: E32 table differs between -shards=1 and -shards=%d:\n--- shards=1 ---\n%s\n--- shards=%d ---\n%s",
					seed, shards, refFmt, shards, gotFmt)
			}
			if gotCSV != refCSV {
				t.Errorf("seed %d: E32 CSV differs between -shards=1 and -shards=%d", seed, shards)
			}
			if gotArt != refArt {
				t.Errorf("seed %d: E32 telemetry artifacts differ between -shards=1 and -shards=%d (%d vs %d bytes)",
					seed, shards, len(refArt), len(gotArt))
			}
		}
		if t.Failed() {
			break
		}
	}
}

// TestTracedPlanesShardCountInvariant extends the byte-identity contract
// to fully traced runs of the other sharded planes: one switch-fabric
// experiment (E10) and one cluster experiment (E23), with every
// telemetry flag on — including the profiling plane, so per-shard
// station samplers are in the loop — must emit byte-identical tables
// and artifacts at shard counts 1, 2, and 8 across several seeds.
func TestTracedPlanesShardCountInvariant(t *testing.T) {
	for _, id := range []string{"E10", "E23"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 42, 1337} {
			run := func(shards int) (string, string) {
				cfg := Config{Seed: seed, Quick: true, Trace: true, Audit: true,
					Metrics: true, Profile: true, Shards: shards}
				tbl := e.Run(cfg)
				art := telemetryArtifacts(t, tbl)
				if art == "" {
					t.Fatalf("%s seed %d shards %d: no telemetry artifacts", id, seed, shards)
				}
				return tbl.Format(), art
			}
			refFmt, refArt := run(1)
			for _, shards := range []int{2, 8} {
				gotFmt, gotArt := run(shards)
				if gotFmt != refFmt {
					t.Errorf("%s seed %d: table differs between -shards=1 and -shards=%d",
						id, seed, shards)
				}
				if gotArt != refArt {
					t.Errorf("%s seed %d: traced artifacts differ between -shards=1 and -shards=%d (%d vs %d bytes)",
						id, seed, shards, len(refArt), len(gotArt))
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestFleetScenarioShardCountInvariant checks RunFleetScenario's result
// struct directly — every field, including the per-sweep flagged series —
// across a shard-count spread that includes counts that do not divide the
// fleet evenly.
func TestFleetScenarioShardCountInvariant(t *testing.T) {
	for _, seed := range []uint64{1, 42, 1337} {
		ref := RunFleetScenario(FleetParams{Disks: 2048, Shards: 1, Seed: seed})
		if ref.InjectedStutter+ref.InjectedFail == 0 {
			t.Fatalf("seed %d: no faults injected — fleet too small to exercise detection", seed)
		}
		for _, shards := range []int{2, 3, 8} {
			got := RunFleetScenario(FleetParams{Disks: 2048, Shards: shards, Seed: seed})
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", ref) {
				t.Errorf("seed %d: fleet result differs at shards=%d:\n shards=1: %+v\n shards=%d: %+v",
					seed, shards, ref, shards, got)
			}
		}
	}
}

// TestFleetScenarioTinyFleetShardInvariant checks the block split at its
// edges: an empty fleet, and a fleet smaller than the shard count, where
// most shards own no disk yet still run a sampler every tick.
func TestFleetScenarioTinyFleetShardInvariant(t *testing.T) {
	for _, disks := range []int{0, 3} {
		ref := RunFleetScenario(FleetParams{Disks: disks, Shards: 1, Seed: 42})
		if len(ref.FlaggedPerSweep) != 12 {
			t.Fatalf("disks=%d: %d sweeps, want 12", disks, len(ref.FlaggedPerSweep))
		}
		if (ref.Events == 0) != (disks == 0) {
			t.Fatalf("disks=%d: %d disk events", disks, ref.Events)
		}
		got := RunFleetScenario(FleetParams{Disks: disks, Shards: 8, Seed: 42})
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", ref) {
			t.Errorf("disks=%d: fleet result differs at shards=8:\n shards=1: %+v\n shards=8: %+v",
				disks, ref, got)
		}
	}
}

// TestRunAllShardCountInvariant extends the determinism suite across the
// shard axis: the full registry's tables and metrics artifacts must be
// byte-identical for -shards=1 and -shards=8 at the reference seed.
// Experiments off the sharded kernel must ignore the setting entirely;
// the sharded planes — the fleet (E32), the switch fabric (E10–E12),
// and the cluster (E14/E15/E23/E24/E29) — must honor it without
// observable effect.
func TestRunAllShardCountInvariant(t *testing.T) {
	run := func(shards int) []*Table {
		return RunAll(Config{Seed: 42, Quick: true, Metrics: true, Shards: shards}, 4)
	}
	ref := run(1)
	got := run(8)
	if len(ref) != len(got) {
		t.Fatalf("table count differs: %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		if gotF, refF := got[i].Format(), ref[i].Format(); gotF != refF {
			t.Errorf("experiment %s table differs between -shards=1 and -shards=8:\n--- shards=1 ---\n%s\n--- shards=8 ---\n%s",
				ref[i].ID, refF, gotF)
		}
		if gotA, refA := telemetryArtifacts(t, got[i]), telemetryArtifacts(t, ref[i]); gotA != refA {
			t.Errorf("experiment %s metrics artifacts differ between -shards=1 and -shards=8", ref[i].ID)
		}
	}
}
