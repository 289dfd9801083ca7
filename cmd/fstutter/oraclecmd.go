package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"failstutter/internal/experiments"
	"failstutter/internal/oracle"
)

// cmdOracle runs each experiment with the profiling plane on, derives the
// analytic predictions for it, and prints the predicted-vs-simulated
// conformance table. Each experiment's report lands in dir as
// <ID>.oracle.json, byte-deterministic for a given seed regardless of
// -shards or -parallel. The conformance rows are also registered as
// oracle instruments before the metrics artifacts are emitted, so a
// -metrics-out CSV/JSON dump carries the residuals alongside the raw
// metrics. Out-of-band rows warn by default; with gate set they exit 1.
// An id the oracle does not cover is a usage error: it exits 2 before any
// experiment runs or any artifact is written.
func cmdOracle(cfg experiments.Config, ids []string, dir string, gate bool, sink artifactSink) {
	for _, id := range ids {
		if !oracle.Covers(id) {
			fmt.Fprintf(os.Stderr, "fstutter oracle: no predictor for experiment %s (covered: %s)\n",
				id, strings.Join(oracle.Covered(), " "))
			os.Exit(2)
		}
	}
	cfg.Profile = true
	single := len(ids) == 1
	failures := 0
	for _, id := range ids {
		e, err := experiments.Get(id)
		if err != nil {
			fail(err)
		}
		tbl := e.Run(cfg)
		in := oracle.Input{Table: tbl, Seed: cfg.Seed, Quick: cfg.Quick}
		if tel := tbl.Telemetry; tel != nil {
			in.Metrics = tel.Metrics
		}
		rep, err := oracle.Analyze(in)
		if err != nil {
			fail(err)
		}
		if err := rep.WriteText(os.Stdout); err != nil {
			fail(err)
		}
		writeArtifact(filepath.Join(dir, tbl.ID+".oracle.json"), rep.WriteJSON)
		oracle.Record(rep, in.Metrics)
		sink.emit(tbl, single)
		failures += rep.Failures()
	}
	if failures > 0 {
		if gate {
			fmt.Fprintf(os.Stderr, "fstutter oracle: %d conformance rows out of band\n", failures)
			os.Exit(1)
		}
		fmt.Println("warn: conformance rows out of band (gate off; failing would need -gate)")
	}
}
