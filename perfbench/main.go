// Command perfbench times the failstutter simulator through its exported
// Go API. It is the measuring half of the repository benchmark: run.py
// builds it, starts one process per op, measures each process's set-up
// time from outside, and prints the final result line. See README.md.
//
//	perfbench -workload fleet -seed 42          # one end-to-end op
//	perfbench -workload fleet -seed 42 -count   # one op with the barrier hook
//	perfbench -workload fleet -seed 42 -trace 1 -seconds 20   # the layer run
//
// An end-to-end op runs with every hook and tracer off and prints one
// "op" line: its wall time, allocation, peak RSS, result digest and
// whether the result passed its checks. The -count op installs the
// barrier-profile hook to count the kernel events an op executes. The
// layer run makes hooked and trace-flipped ops, times the per-layer
// microbenchmarks, prints the ledger and ends with a "result" line. With
// -probe the process exits as soon as set-up is done, after the ready
// line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"testing"
	"time"
)

// readyLine is printed, and flushed, the moment set-up ends and the first
// op is about to start.
const readyLine = "perfbench: ready"

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line run.py completes with setup_s and prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostStamp records where and how a run was made.
type hostStamp struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	NumCPU       int    `json:"numcpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go"`
	Shards       int    `json:"shards"`
	SweepWorkers int    `json:"sweep_workers"`
	Parallel     int    `json:"parallel"`
}

func main() {
	// Registers -test.benchtime, which the layer microbenchmarks set.
	testing.Init()
	name := flag.String("workload", "", "fleet, fleet-telemetry, planes or suite-quick")
	seed := flag.Uint64("seed", 42, "workload seed")
	want := flag.String("want", "", "expected result digest (default: the committed one at seed 42)")
	count := flag.Bool("count", false, "run the op with the barrier-profile hook, to count kernel events")
	traceFlag := flag.Int("trace", 0, "0: one end-to-end op; 1: the layer run")
	seconds := flag.Float64("seconds", 20, "layer run: measuring time")
	probe := flag.Bool("probe", false, "exit once set-up is done")
	flag.Parse()

	nproc := runtime.NumCPU()
	w, err := newWorkload(*name, nproc)
	if err != nil {
		fatal(err)
	}
	stamp := hostStamp{
		Workload: w.name, Seed: *seed, NumCPU: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Shards: w.shards, SweepWorkers: w.sweepWorkers, Parallel: w.parallel,
	}
	// A run on more threads than cores measures the oversubscription,
	// not the program: refuse it.
	if stamp.GOMAXPROCS > nproc || w.threads() > nproc {
		fatal(fmt.Errorf("refusing an oversubscribed run: gomaxprocs %d, %d threads of work, %d cpus",
			stamp.GOMAXPROCS, w.threads(), nproc))
	}
	c := &checker{w: w, ref: *want}
	if c.ref == "" && *seed == 42 {
		c.ref = seed42Digests[w.name]
	}
	fmt.Println(readyLine)
	if *probe {
		return
	}

	printJSON("host", stamp)
	if *traceFlag != 1 {
		printJSON("op", oneOp(c, *seed, *count))
		return
	}
	metrics := layerRun(w, c, *seed, *seconds)
	fmt.Printf("checks %s: %d ops attempted, %d failed (fail_frac %.4g)\n",
		w.name, c.attempted, c.failed, float64(c.failed)/float64(max(c.attempted, 1)))
	printJSON("result", result{
		Correct: c.failed == 0 && c.attempted > 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics,
	})
}

// printJSON prints v as one line, after a tag naming it.
func printJSON(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s %s\n", tag, b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// checker compares every op's result with the reference digest: the
// committed seed-42 digest or the one given, or else its first op's.
type checker struct {
	w         *workload
	ref       string
	attempted int
	failed    int
}

// checked is one op's output, wall time, heap figures and digest, and
// why it failed its checks, if it did.
type checked struct {
	out        opOut
	wall       time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	digest     string
	err        error
}

// op runs one op of the given variant, timing only the op itself, and
// checks its result afterwards.
func (c *checker) op(seed uint64, o opts) checked {
	c.attempted++
	// Every op starts from a collected heap with its memory returned to
	// the OS: no op inherits another op's garbage, GC debt or pages.
	debug.FreeOSMemory()
	var r checked
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	perr := func() (perr any) {
		defer func() { perr = recover() }()
		t0 := time.Now()
		r.out = c.w.run(seed, o)
		r.wall = time.Since(t0)
		return nil
	}()
	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	switch {
	case perr != nil:
		r.err = fmt.Errorf("panic: %v", perr)
	default:
		r.err = r.out.valid(c.w)
	}
	if r.err == nil {
		r.digest = r.out.digest()
		if c.ref == "" {
			c.ref = r.digest
		}
		if r.digest != c.ref {
			r.err = fmt.Errorf("result digest %s, want %s", r.digest, c.ref)
		}
	}
	if r.err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: failed op: %v\n", c.w.name, seed, r.err)
	}
	return r
}

// opLine is what an end-to-end or -count op reports.
type opLine struct {
	OK      bool    `json:"ok"`
	Digest  string  `json:"digest"`
	WallS   float64 `json:"wall_s"`
	AllocMB float64 `json:"alloc_mb"`
	RSSMB   float64 `json:"rss_mb"`
	// Events is the kernel events the op executed: FleetResult.Events,
	// or with -count the sharded kernels' fired events (0 otherwise).
	Events uint64 `json:"events"`
}

// oneOp runs a single op, plain or with the barrier-profile hook.
func oneOp(c *checker, seed uint64, count bool) opLine {
	o := opts{}
	tally := &kernelTally{}
	if count {
		o.kernel = tally
	}
	r := c.op(seed, o)
	line := opLine{
		OK: r.err == nil, Digest: r.digest, WallS: r.wall.Seconds(), RSSMB: peakRSSMB(),
		AllocMB: float64(r.allocBytes) / (1 << 20), Events: tally.st.Fired,
	}
	if r.out.fleet != nil {
		line.Events = r.out.fleet.Events
	}
	return line
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(fmt.Errorf("getrusage: %w", err))
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median reads a sample set; NaN-free input is assumed, and an empty set
// reads 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
