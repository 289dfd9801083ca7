package profile

import (
	"bytes"
	"io"
	"testing"

	"failstutter/internal/trace"
)

// FuzzPerfDiff feeds two byte strings through ReadBench as the old and
// new artifacts. ReadBench may reject either with an error; when both
// parse, PerfDiff (with an audit trail, so the audited detector path
// runs too) and WriteText must not panic, whatever the entries hold:
// empty or huge sample lists, mixed units, duplicate names, zero or
// negative samples. The seed corpus under testdata/fuzz/FuzzPerfDiff
// replays on every go test run.
func FuzzPerfDiff(f *testing.F) {
	f.Fuzz(func(t *testing.T, oldJSON, newJSON []byte) {
		oldA, err := ReadBench(bytes.NewReader(oldJSON))
		if err != nil {
			return
		}
		newA, err := ReadBench(bytes.NewReader(newJSON))
		if err != nil {
			return
		}
		rep := PerfDiff(oldA, newA, PerfDiffConfig{Audit: trace.NewAuditLog()})
		if err := rep.WriteText(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
