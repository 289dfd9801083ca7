package experiments

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// RunAll executes every registered experiment and returns the tables in
// display order (the order of All()). parallelism is the number of worker
// goroutines experiments are fanned across; values below 1 are treated
// as 1.
//
// Every experiment owns an independent Simulator and seeded RNG, so the
// whole suite is embarrassingly parallel and the tables are byte-identical
// for a given seed regardless of parallelism.
func RunAll(cfg Config, parallelism int) []*Table {
	return runExperiments(All(), cfg, parallelism)
}

// runExperiments fans list across parallelism workers and returns tables
// positionally aligned with list.
//
// A panic in one experiment is recovered on its worker, and the other
// experiments still run. Once all have finished, the lowest failing
// index's panic is re-raised on the caller, naming the experiment and
// seed, with the original stack and a command that reproduces it alone.
func runExperiments(list []Experiment, cfg Config, parallelism int) []*Table {
	tables := make([]*Table, len(list))
	failures := make([]string, len(list))
	run := func(n int) {
		defer func() {
			if r := recover(); r != nil {
				failures[n] = experimentPanic(list[n].ID, cfg, r, debug.Stack())
			}
		}()
		tables[n] = list[n].Run(cfg)
	}
	// Experiments have very unequal costs, so workers pull the next index
	// from a shared counter instead of taking fixed slices.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(max(parallelism, 1), len(list)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(list) {
					return
				}
				run(n)
			}
		}()
	}
	wg.Wait()
	for _, msg := range failures {
		if msg != "" {
			panic(msg)
		}
	}
	return tables
}

// experimentPanic formats a panic recovered from experiment id's run: the
// value, the stack it was raised on, and a last line holding the
// `fstutter run` command that repeats the run alone.
func experimentPanic(id string, cfg Config, r any, stack []byte) string {
	repro := fmt.Sprintf("fstutter run %s -seed %d", id, cfg.Seed)
	if cfg.Quick {
		repro += " -quick"
	}
	repro += fmt.Sprintf(" -shards %d", cfg.ShardCount())
	return fmt.Sprintf("experiments: %s (seed %d) panicked: %v\n\n%s\nreproduce: %s", id, cfg.Seed, r, stack, repro)
}
