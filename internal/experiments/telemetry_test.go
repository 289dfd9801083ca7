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

// TestFleetTelemetryDigest pins every artifact of E32's quick, seed-42
// flight-recorded run at one shard — the Chrome trace, the metrics JSON
// and CSV, the audit JSON — by SHA-256, in sha256sum format, so the
// recorder's selection cannot drift unnoticed. The file names are the
// ones `fstutter run E32 -quick -seed 42 -shards 1 -trace-out=DIR
// -metrics-out=DIR -audit` writes, so `sha256sum -c` checks that
// directory against the committed file. Refresh with `go test
// ./internal/experiments -run FleetTelemetryDigest -update` only when
// the change is meant to move E32's artifacts.
func TestFleetTelemetryDigest(t *testing.T) {
	e, err := Get("E32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := observed
	cfg.Shards = 1
	tel := e.Run(cfg).Telemetry
	var got strings.Builder
	for _, a := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"E32.trace.json", tel.Tracer.WriteChromeTrace},
		{"E32.metrics.json", tel.Metrics.WriteJSON},
		{"E32.metrics.csv", tel.Metrics.WriteCSV},
		{"E32.audit.json", tel.Audit.WriteJSON},
	} {
		h := sha256.New()
		if err := a.write(h); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		fmt.Fprintf(&got, "%x  %s\n", h.Sum(nil), a.name)
	}
	path := filepath.Join("testdata", "E32.telemetry.sha256")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("E32 quick seed-42 artifacts diverged from %s:\n--- got\n%s--- want\n%s"+
			"refresh with -update only if the change is meant to move them",
			path, got.String(), want)
	}
}
