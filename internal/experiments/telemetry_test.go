package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden telemetry artifacts under testdata/.
var update = flag.Bool("update", false, "rewrite golden files")

// observed is the quick test config with every telemetry flag on.
var observed = Config{Seed: 42, Quick: true, Trace: true, Audit: true, Metrics: true}

func runObserved(t *testing.T, id string) *Table {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.Run(observed)
	if tbl.Telemetry == nil {
		t.Fatalf("experiment %s ran with telemetry flags but Table.Telemetry is nil", id)
	}
	return tbl
}

// artifacts serializes every telemetry artifact of a table into one byte
// stream, for byte-level comparisons.
func artifacts(t *testing.T, tbl *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	tel := tbl.Telemetry
	if err := tel.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tel.Audit.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tel.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tel.Metrics.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTelemetryOffByDefault checks the zero-cost default: without flags no
// Telemetry is attached, and enabling every flag leaves the formatted table
// byte-identical — observability must never perturb results.
func TestTelemetryOffByDefault(t *testing.T) {
	for _, id := range []string{"E01", "E03", "E05", "E22"} {
		plain := runByID(t, id)
		if plain.Telemetry != nil {
			t.Fatalf("%s: telemetry attached with all flags off", id)
		}
		traced := runObserved(t, id)
		if plain.Format() != traced.Format() {
			t.Fatalf("%s: telemetry flags changed the formatted table", id)
		}
	}
}

// TestTelemetryDeterministic runs telemetry-heavy experiments twice at the
// same seed and requires byte-identical artifacts: traces, audit trails,
// and metric dumps are part of the reproducibility contract.
func TestTelemetryDeterministic(t *testing.T) {
	for _, id := range []string{"E03", "E05", "E20", "E22"} {
		a := artifacts(t, runObserved(t, id))
		b := artifacts(t, runObserved(t, id))
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: telemetry artifacts differ between identical runs", id)
		}
	}
}

// TestTelemetryArtifactsPopulated spot-checks that the wiring reaches each
// artifact type: spans from the RAID pipeline, audit records from the
// detection experiments, metrics from the adaptive-striping runs.
func TestTelemetryArtifactsPopulated(t *testing.T) {
	if tel := runObserved(t, "E05").Telemetry; tel.Tracer.Len() == 0 {
		t.Error("E05: no spans recorded")
	}
	if tel := runObserved(t, "E22").Telemetry; tel.Audit.Len() == 0 {
		t.Error("E22: no audit records")
	}
	if tel := runObserved(t, "E01").Telemetry; tel.Metrics.Len() == 0 {
		t.Error("E01: no metrics registered")
	}
}

// TestTelemetryGolden pins the E05 Chrome trace at seed 42 byte-for-byte.
// A change here means the exported timeline moved: verify it in Perfetto,
// then refresh with `go test ./internal/experiments/ -run Golden -update`.
func TestTelemetryGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runObserved(t, "E05").Telemetry.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "E05.trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("E05 Chrome trace diverged from %s (len %d vs %d); "+
			"inspect in Perfetto and refresh with -update if intended",
			path, buf.Len(), len(want))
	}
}

// digestIDs are the experiments whose telemetry runs on the sharded
// kernel's per-shard collectors: the switch plane (E10–E12), the cluster
// plane (E14, E15, E23, E24, E29) and the E32 fleet under its flight
// recorder. Their artifacts are pinned because the merge is what keeps
// them byte-identical at every shard count.
var digestIDs = []string{"E10", "E11", "E12", "E14", "E15", "E23", "E24", "E29", "E32"}

// TestFleetTelemetryDigest pins every telemetry artifact of the sharded
// planes' quick, seed-42 runs — the Chrome trace, the metrics JSON and
// CSV, the audit JSON — by SHA-256, in sha256sum format, one
// testdata/<ID>.telemetry.sha256 file per experiment. Each experiment
// runs at 1 and 3 shards against the same file, so neither the merge nor
// the flight recorder's selection can drift unnoticed. The file names are
// the ones `fstutter run <ID> -quick -seed 42 -trace-out=DIR
// -metrics-out=DIR -audit` writes, so `sha256sum -c` checks that
// directory against the committed file. Refresh with `go test
// ./internal/experiments -run FleetTelemetryDigest -update` (it writes
// the 1-shard digests) only when the change is meant to move artifacts.
func TestFleetTelemetryDigest(t *testing.T) {
	for _, id := range digestIDs {
		path := filepath.Join("testdata", id+".telemetry.sha256")
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", id, shards), func(t *testing.T) {
				got := telemetryDigest(t, id, shards)
				if *update && shards == 1 {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create)", err)
				}
				if got != string(want) {
					t.Fatalf("%s quick seed-42 artifacts at %d shards diverged from %s:\n--- got\n%s--- want\n%s"+
						"refresh with -update only if the change is meant to move them",
						id, shards, path, got, want)
				}
			})
		}
	}
}

// telemetryDigest runs one experiment observed at the given shard count
// and returns its artifacts' SHA-256 lines in sha256sum format.
func telemetryDigest(t *testing.T, id string, shards int) string {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	cfg := observed
	cfg.Shards = shards
	tel := e.Run(cfg).Telemetry
	var got strings.Builder
	for _, a := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{id + ".trace.json", tel.Tracer.WriteChromeTrace},
		{id + ".metrics.json", tel.Metrics.WriteJSON},
		{id + ".metrics.csv", tel.Metrics.WriteCSV},
		{id + ".audit.json", tel.Audit.WriteJSON},
	} {
		h := sha256.New()
		if err := a.write(h); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		fmt.Fprintf(&got, "%x  %s\n", h.Sum(nil), a.name)
	}
	return got.String()
}
