package profile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"failstutter/internal/trace"
)

// BenchSchema identifies the benchmark artifact format.
const BenchSchema = "fstutter-bench/1"

// Bench is one benchmark's repeated measurements in Unit: "ns/op",
// "B/op" or "allocs/op" as reported by testing.B, or a rate such as
// "events/s".
type Bench struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
}

// Median returns the median sample in Unit (NaN-free input assumed;
// zero when empty).
func (b Bench) Median() float64 {
	if len(b.Samples) == 0 {
		return 0
	}
	s := append([]float64(nil), b.Samples...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// BenchArtifact is a committed performance baseline: the output of
// `fstutter bench`, diffed over time by `fstutter perfdiff`.
//
// Shards, GoMaxProcs and NumCPU record the parallelism the samples were
// taken under: wall-clock benchmarks from a sharded run on a 16-core
// runner are not comparable to a serial run on a laptop, and perfdiff
// warns when the two sides of a diff disagree. Zero means the artifact
// predates the fields (unknown), which never warns.
type BenchArtifact struct {
	Schema     string `json:"schema"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
	Shards     int    `json:"shards,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"numcpu,omitempty"`
	// SweepWorkers is the barrier sweep pool size the fleet benchmarks
	// ran with (the resolved -sweep-workers value).
	SweepWorkers int     `json:"sweepworkers,omitempty"`
	Benchmarks   []Bench `json:"benchmarks"`
}

// WriteJSON writes the artifact in canonical byte-deterministic form:
// benchmarks sorted by name, floats in shortest-roundtrip notation.
func (a *BenchArtifact) WriteJSON(w io.Writer) error {
	benches := append([]Bench(nil), a.Benchmarks...)
	sort.Slice(benches, func(i, j int) bool { return benches[i].Name < benches[j].Name })
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"schema":`)
	jstr(bw, BenchSchema)
	bw.WriteString(`,"seed":`)
	bw.WriteString(strconv.FormatUint(a.Seed, 10))
	bw.WriteString(`,"quick":`)
	bw.WriteString(strconv.FormatBool(a.Quick))
	if a.Shards > 0 {
		bw.WriteString(`,"shards":`)
		bw.WriteString(strconv.Itoa(a.Shards))
	}
	if a.GoMaxProcs > 0 {
		bw.WriteString(`,"gomaxprocs":`)
		bw.WriteString(strconv.Itoa(a.GoMaxProcs))
	}
	if a.NumCPU > 0 {
		bw.WriteString(`,"numcpu":`)
		bw.WriteString(strconv.Itoa(a.NumCPU))
	}
	if a.SweepWorkers > 0 {
		bw.WriteString(`,"sweepworkers":`)
		bw.WriteString(strconv.Itoa(a.SweepWorkers))
	}
	bw.WriteString(`,"benchmarks":[`)
	for i, b := range benches {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n")
		bw.WriteString(`{"name":`)
		jstr(bw, b.Name)
		bw.WriteString(`,"unit":`)
		jstr(bw, b.Unit)
		bw.WriteString(`,"samples":[`)
		for j, s := range b.Samples {
			if j > 0 {
				bw.WriteByte(',')
			}
			trace.WriteJSONNum(bw, s)
		}
		bw.WriteString(`]}`)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// ReadBench parses a benchmark artifact and validates its schema tag.
func ReadBench(r io.Reader) (*BenchArtifact, error) {
	var a BenchArtifact
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("profile: parsing bench artifact: %w", err)
	}
	if a.Schema != BenchSchema {
		return nil, fmt.Errorf("profile: bench artifact schema %q, want %q", a.Schema, BenchSchema)
	}
	return &a, nil
}

// ReadBenchFile reads a benchmark artifact from disk.
func ReadBenchFile(path string) (*BenchArtifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBench(f)
}
