// Clustersort: a distributed sort in virtual time, with a CPU hog.
//
// Four workers sort a partitioned record space on the discrete-event
// kernel. Mid-job, a competing process lands on worker 0 and takes half
// its CPU — the NOW-Sort interference the paper surveys ("a node with
// excess CPU load reduces global sorting performance by a factor of
// two"). Six schedulers of increasing fail-stutter awareness run the
// identical job:
//
//	static-partition   fail-stop design: fixed equal chunks
//	gauged-partition   scenario 2: probe speeds once, split proportionally
//	work-queue         River-style pull
//	hedged             pull + tail cloning
//	reissue            Shasha-Turek slow-down reissue with reconcile
//	detect-avoid       fail-stutter loop: detect, flag, migrate backlog
//
// Every run is deterministic: the makespans below are exact functions of
// the configuration, reproducible to the last digit. Each runs on a
// 1-shard kernel whose lookahead is the quantum: a finished worker's next
// task starts at the window horizon, at most one quantum after the
// completion.
//
// Run with: go run ./examples/clustersort
package main

import (
	"fmt"

	"failstutter"
	"failstutter/internal/workload"
)

func main() {
	const (
		workers    = 4
		partitions = 64
		quantum    = 50e-6 // 50 virtual microseconds per work unit
	)
	// Partition the record space; task cost follows n log n.
	records := 1 << 20
	perPart := records / partitions
	units := workload.SortUnits(perPart, perPart)
	tasks := failstutter.UniformTasks(partitions, units)
	fmt.Printf("sorting %d records in %d partitions (%d work units each) on %d workers\n\n",
		records, partitions, units, workers)

	fmt.Println("healthy cluster:")
	for _, sched := range failstutter.Schedulers() {
		pool := failstutter.NewPool(failstutter.NewShardedSimulator(1, quantum), workers, quantum)
		r := sched.Run(pool, tasks)
		fmt.Printf("  %-18s %9.3fs\n", r.Scheduler, r.Makespan)
	}

	// The hog lands a tenth of the way into the healthy-case job.
	hogAt := float64(partitions*units) * quantum / workers / 10

	fmt.Println("\nCPU hog lands on worker 0 early in the job (50% CPU for the rest of it):")
	for _, sched := range failstutter.Schedulers() {
		pool := failstutter.NewPool(failstutter.NewShardedSimulator(1, quantum), workers, quantum)
		pool.SetSpeedAt(0, hogAt, 0.5)
		r := sched.Run(pool, tasks)
		extra := ""
		if r.Duplicates > 0 {
			extra = fmt.Sprintf("  (%d duplicate launches, %.0f units wasted)", r.Duplicates, r.WastedUnits)
		}
		fmt.Printf("  %-18s %9.3fs%s\n", r.Scheduler, r.Makespan, extra)
	}

	fmt.Println("\nsevere mid-job slow-down failure (worker 0 drops to 2%):")
	for _, name := range []string{"work-queue", "reissue"} {
		for _, sched := range failstutter.Schedulers() {
			if sched.Name() != name {
				continue
			}
			pool := failstutter.NewPool(failstutter.NewShardedSimulator(1, quantum), workers, quantum)
			pool.SetSpeedAt(0, hogAt, 0.02)
			r := sched.Run(pool, tasks)
			fmt.Printf("  %-18s %9.3fs  (wasted %.0f units of %d total)\n",
				r.Scheduler, r.Makespan, r.WastedUnits, partitions*units)
		}
	}
	fmt.Println("\nthe pull-based and reissue designs shed the stutterer; the static design tracks it")
}
