// Command fstutter runs the fail-stutter reproduction suite: every
// quantitative claim from "Fail-Stutter Fault Tolerance" (HotOS 2001)
// regenerated as a table.
//
// Usage:
//
//	fstutter list                 # show every experiment and its claim
//	fstutter run E01 E03 A2      # run selected experiments
//	fstutter e7                   # bare id: same as `run E07`
//	fstutter all                  # run the full suite
//	fstutter profile E05          # critical-path + SLO + barrier-cost artifacts
//	fstutter oracle E01 E23       # predicted-vs-simulated conformance report
//	fstutter bench -out B.json    # wall-clock benchmark artifact
//	fstutter perfdiff old new     # diff two bench artifacts, gate on regress
//
// Flags (accepted before or after the subcommand):
//
//	-seed N           random seed (default 42)
//	-quick            shrink workloads for a fast pass (the test suite's mode)
//	-format FMT       table output: text (default) or csv
//	-parallel N       experiment fan-out for `all` (default GOMAXPROCS);
//	                  every experiment runs in virtual time, so the tables
//	                  are byte-identical at any fan-out
//	-shards N         shard count for sharded-kernel experiments (0 = one
//	                  per core); results are byte-identical at any value
//	-trace-out PATH   write Chrome trace-event JSON (open in Perfetto or
//	                  chrome://tracing); a directory gets <ID>.trace.json
//	                  per experiment, a .json path is used verbatim when
//	                  exactly one experiment runs
//	-metrics-out DIR  write <ID>.metrics.json and <ID>.metrics.csv
//	-audit            print the verdict audit timeline per experiment and,
//	                  with an output directory, write <ID>.audit.json
//	-out PATH         `profile` artifact directory (default profiles/), or
//	                  `bench` output file (default stdout)
//	-top N            rows in the `profile` hot-frame table (default 15)
//	-slo SECONDS      `profile` SLO latency threshold (0 = auto: 5x median)
//	-samples N        wall-clock samples per benchmark for `bench` (default 5)
//	-threshold R      `perfdiff` rate-ratio threshold (default 0.8)
//	-gate             `perfdiff` exits 1 on regression, `oracle` exits 1 on
//	                  out-of-band rows, instead of warning
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"failstutter/internal/experiments"
	"failstutter/internal/trace"
)

func main() {
	seed := flag.Uint64("seed", 42, "random seed for all stochastic components")
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	format := flag.String("format", "text", "output format: text or csv")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for `all` (1 = serial; tables are identical either way)")
	shards := flag.Int("shards", 0,
		"shard count for experiments on the sharded kernel (0 = one per core; results are identical at any value)")
	traceOut := flag.String("trace-out", "", "write Chrome trace-event JSON to this directory (or .json file for a single experiment)")
	metricsOut := flag.String("metrics-out", "", "write metrics JSON and CSV dumps to this directory")
	audit := flag.Bool("audit", false, "print the verdict audit timeline per experiment")
	out := flag.String("out", "", "output location for 'profile' (directory, default profiles/) and 'bench' (file, default stdout)")
	topN := flag.Int("top", 15, "rows in the 'profile' hot-frame table")
	sloThresh := flag.Float64("slo", 0, "'profile' SLO latency threshold in virtual seconds (0 = auto: 5x median)")
	samples := flag.Int("samples", 5, "wall-clock samples per benchmark for 'bench'")
	threshold := flag.Float64("threshold", 0.8, "'perfdiff' rate-ratio threshold: new/old throughput below this is a regression")
	gate := flag.Bool("gate", false, "'perfdiff' exits 1 on regression instead of warning")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cmd := args[0]
	operands := parseInterleaved(args[1:])

	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "fstutter: unknown format %q\n", *format)
		os.Exit(2)
	}
	asCSV = *format == "csv"
	cfg := experiments.Config{
		Seed: *seed, Quick: *quick,
		Trace:   *traceOut != "",
		Audit:   *audit,
		Metrics: *metricsOut != "",
		Shards:  *shards,
	}
	sink := artifactSink{traceOut: *traceOut, metricsOut: *metricsOut, audit: *audit}

	switch cmd {
	case "list":
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
			fmt.Printf("     paper: %s\n", e.PaperClaim)
		}
		return
	case "all":
		// RunAll fans the virtual-time experiments across -parallel
		// workers and returns tables in display order; output is
		// deterministic for a given seed regardless of parallelism.
		for _, tbl := range experiments.RunAll(cfg, *parallel) {
			printTable(tbl)
			sink.emit(tbl, false)
		}
		return
	case "run":
		if len(operands) == 0 {
			fmt.Fprintln(os.Stderr, "fstutter run: at least one experiment id required")
			os.Exit(2)
		}
	case "profile":
		if len(operands) == 0 {
			fmt.Fprintln(os.Stderr, "fstutter profile: at least one experiment id required")
			os.Exit(2)
		}
		dir := *out
		if dir == "" {
			dir = "profiles"
		}
		cmdProfile(cfg, resolveIDs(operands), dir, *sloThresh, *topN)
		return
	case "oracle":
		if len(operands) == 0 {
			fmt.Fprintln(os.Stderr, "fstutter oracle: at least one experiment id required")
			os.Exit(2)
		}
		dir := *out
		if dir == "" {
			dir = "oracle"
		}
		cmdOracle(cfg, resolveIDs(operands), dir, *gate, sink)
		return
	case "perfdiff":
		if len(operands) != 2 {
			fmt.Fprintln(os.Stderr, "fstutter perfdiff: usage: fstutter perfdiff <old.json> <new.json> [-threshold R] [-gate]")
			os.Exit(2)
		}
		cmdPerfDiff(operands[0], operands[1], *threshold, *gate)
		return
	case "bench":
		cmdBench(cfg, *samples, *out)
		return
	default:
		// A bare experiment id ("E07", "e7", "a2") is shorthand for
		// `run <ID>`.
		if _, ok := normalizeID(cmd); !ok {
			fmt.Fprintf(os.Stderr, "fstutter: unknown command %q\n", cmd)
			usage()
			os.Exit(2)
		}
		operands = append([]string{cmd}, operands...)
	}

	ids := resolveIDs(operands)
	single := len(ids) == 1
	for _, id := range ids {
		e, err := experiments.Get(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tbl := e.Run(cfg)
		printTable(tbl)
		sink.emit(tbl, single)
	}
}

// resolveIDs normalizes each operand to a canonical experiment id,
// exiting 2 (a usage error, like any other bad operand) on the first
// unknown one, listing the valid ids.
func resolveIDs(operands []string) []string {
	ids := make([]string, len(operands))
	for i, raw := range operands {
		id, ok := normalizeID(raw)
		if !ok {
			fmt.Fprintf(os.Stderr, "fstutter: unknown experiment %q (valid: %s)\n",
				raw, strings.Join(experiments.IDs(), " "))
			os.Exit(2)
		}
		ids[i] = id
	}
	return ids
}

// normalizeID resolves user spellings of experiment ids: case-insensitive
// and tolerant of unpadded E-series numbers (e7 -> E07).
func normalizeID(raw string) (string, bool) {
	id := strings.ToUpper(raw)
	if _, err := experiments.Get(id); err == nil {
		return id, true
	}
	if len(id) > 1 {
		if n, err := strconv.Atoi(id[1:]); err == nil {
			padded := fmt.Sprintf("%c%02d", id[0], n)
			if _, err := experiments.Get(padded); err == nil {
				return padded, true
			}
			bare := fmt.Sprintf("%c%d", id[0], n)
			if _, err := experiments.Get(bare); err == nil {
				return bare, true
			}
		}
	}
	return "", false
}

// artifactSink writes one experiment's telemetry artifacts to the
// locations selected by the output flags.
type artifactSink struct {
	traceOut   string
	metricsOut string
	audit      bool
}

// emit writes the table's artifacts. Experiments without telemetry
// wiring still produce valid (empty) artifacts, so downstream tooling
// can glob the output directory without special cases. single marks a
// lone-experiment invocation, where a -trace-out ending in .json names
// the output file directly.
func (k artifactSink) emit(tbl *experiments.Table, single bool) {
	var tr *trace.Tracer
	var al *trace.AuditLog
	var reg *trace.Registry
	if tel := tbl.Telemetry; tel != nil {
		tr, al, reg = tel.Tracer, tel.Audit, tel.Metrics
	}
	if k.traceOut != "" {
		path := filepath.Join(k.traceOut, tbl.ID+".trace.json")
		if single && strings.HasSuffix(k.traceOut, ".json") {
			path = k.traceOut
		}
		writeArtifact(path, tr.WriteChromeTrace)
	}
	if k.metricsOut != "" {
		writeArtifact(filepath.Join(k.metricsOut, tbl.ID+".metrics.json"), reg.WriteJSON)
		writeArtifact(filepath.Join(k.metricsOut, tbl.ID+".metrics.csv"), reg.WriteCSV)
	}
	if k.audit {
		fmt.Printf("-- %s verdict audit trail --\n", tbl.ID)
		if err := al.WriteText(os.Stdout); err != nil {
			fail(err)
		}
		fmt.Println()
		if dir := k.auditDir(); dir != "" {
			writeArtifact(filepath.Join(dir, tbl.ID+".audit.json"), al.WriteJSON)
		}
	}
}

// auditDir picks where <ID>.audit.json lands: alongside the metrics if
// requested, else alongside the traces (when -trace-out names a
// directory), else nowhere (stdout only).
func (k artifactSink) auditDir() string {
	if k.metricsOut != "" {
		return k.metricsOut
	}
	if k.traceOut != "" && !strings.HasSuffix(k.traceOut, ".json") {
		return k.traceOut
	}
	return ""
}

// writeArtifact creates path (and its directory) and streams write into
// it, exiting on any error — a missing artifact must not fail silently.
func writeArtifact(path string, write func(w io.Writer) error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fail(err)
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fstutter:", err)
	os.Exit(1)
}

// parseInterleaved reparses flags that appear after the subcommand (so
// `fstutter all -quick -seed 42` works, not just `fstutter -quick all`)
// and returns the non-flag operands in order.
func parseInterleaved(args []string) []string {
	var operands []string
	for len(args) > 0 {
		flag.CommandLine.Parse(args)
		args = flag.CommandLine.Args()
		if len(args) == 0 {
			break
		}
		operands = append(operands, args[0])
		args = args[1:]
	}
	return operands
}

// asCSV selects CSV table output, set from the -format flag.
var asCSV bool

func printTable(tbl *experiments.Table) {
	if asCSV {
		fmt.Print(tbl.CSV())
		return
	}
	fmt.Println(tbl.Format())
}

func usage() {
	fmt.Fprintf(os.Stderr, `fstutter — fail-stutter fault tolerance reproduction suite

usage:
  fstutter [flags] list
  fstutter [flags] run <id>...
  fstutter [flags] <id>         (bare id: run one experiment, e.g. 'fstutter e7')
  fstutter [flags] all
  fstutter [flags] profile <id>...
  fstutter [flags] oracle <id>...
  fstutter [flags] bench        (exits 2 if GOMAXPROCS or -shards
                                exceeds the CPU count)
  fstutter [flags] perfdiff <old.json> <new.json>

flags (before or after the subcommand):
  -seed N           random seed (default 42)
  -quick            shrink workloads for a fast pass
  -format FMT       text (default) or csv
  -parallel N       worker goroutines for 'all' (default GOMAXPROCS)
  -shards N         shard count for sharded-kernel experiments (default:
                    one per core; tables are identical at any value)
  -trace-out PATH   Chrome trace-event JSON: directory for <ID>.trace.json,
                    or a .json file when running a single experiment
  -metrics-out DIR  metrics registry dumps: <ID>.metrics.json + .csv
  -audit            print the verdict audit timeline (and write
                    <ID>.audit.json next to metrics or traces)
  -out PATH         'profile' artifact directory (default profiles/):
                    <ID>.profile.json + .folded.txt + .critpath.txt + .slo.json
                    + .barrier.json (sharded experiments: barrier cost profile);
                    'oracle' artifact directory (default oracle/): <ID>.oracle.json;
                    or 'bench' artifact file (default stdout)
  -top N            rows in the 'profile' hot-frame table (default 15)
  -slo SECONDS      'profile' SLO latency threshold (0 = auto: 5x median)
  -samples N        wall-clock samples per benchmark for 'bench' (default 5)
  -threshold R      'perfdiff' throughput-ratio threshold (default 0.8)
  -gate             'perfdiff' exits 1 on regression, 'oracle' exits 1 on
                    out-of-band conformance rows, instead of warning
`)
}
