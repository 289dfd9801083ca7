package profile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"failstutter/internal/detect"
	"failstutter/internal/spec"
	"failstutter/internal/trace"
)

// PerfDiffConfig parameterizes the perf-trajectory gate.
type PerfDiffConfig struct {
	// Threshold is the window-detector fraction: the diff flags a
	// benchmark whose new median throughput (ops/s) drops below
	// Threshold x the old median. Default 0.8 — a 25% slowdown flags, a
	// 2x slowdown flags loudly, run-to-run noise does not.
	Threshold float64
	// DeclineFrac feeds the Theil-Sen trend detector over the
	// concatenated sample sequence; a sustained decline emits a warning
	// even when the medians still pass. Default 0.1.
	DeclineFrac float64
	// Audit, when non-nil, records every detector verdict transition —
	// the same audit trail the simulated detectors write.
	Audit *trace.AuditLog
}

// Delta statuses.
const (
	DiffOK         = "ok"
	DiffRegression = "regression"
	DiffImproved   = "improved"
	DiffDeclining  = "declining"
	DiffMissing    = "missing"
	// DiffAdded marks a benchmark present only in the new artifact: an
	// informational line, never a regression — a fresh benchmark has no
	// baseline to regress against until the artifact is regenerated.
	DiffAdded = "added"
)

// BenchDelta is one benchmark's verdict.
type BenchDelta struct {
	Name      string
	Status    string
	OldMedian float64 // ns/op
	NewMedian float64 // ns/op
	// Ratio is new throughput over old throughput (old median ns over
	// new median ns): 1.0 unchanged, 0.5 means twice as slow.
	Ratio   float64
	Verdict string // the detector's verdict string
}

// PerfDiffReport is the full diff.
type PerfDiffReport struct {
	Threshold   float64
	Deltas      []BenchDelta
	Regressions int
	Improved    int
	Declining   int
	Added       int
	// Warnings flags artifacts whose parallelism metadata disagrees:
	// comparing wall-clock medians taken at different shard counts or on
	// different machines classifies the hardware delta, not the code's.
	// Warnings never fail the gate.
	Warnings []string
}

// Failed reports whether any benchmark regressed (including benchmarks
// that vanished from the new artifact).
func (r *PerfDiffReport) Failed() bool { return r.Regressions > 0 }

// PerfDiff compares two benchmark artifacts using the repo's own
// fail-stutter detection plane: per benchmark, the old samples gauge a
// WindowDetector baseline (install-time gauging), the new samples stream
// through its recent window, and the final verdict classifies the
// benchmark exactly as the simulator classifies a stuttering disk. A
// TrendDetector over the concatenated sequence additionally warns on
// sustained decline that has not yet crossed the threshold.
func PerfDiff(oldA, newA *BenchArtifact, cfg PerfDiffConfig) *PerfDiffReport {
	if cfg.Threshold <= 0 || cfg.Threshold >= 1 {
		cfg.Threshold = 0.8
	}
	if cfg.DeclineFrac <= 0 {
		cfg.DeclineFrac = 0.1
	}
	rep := &PerfDiffReport{Threshold: cfg.Threshold}

	// Parallelism metadata mismatch: warn, never fail. Zero on either side
	// means the artifact predates the field — unknown, not different.
	warnMeta := func(field string, o, n int) {
		if o > 0 && n > 0 && o != n {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf(
				"%s differs (old %d, new %d): wall-clock medians compare the run configurations, not just the code",
				field, o, n))
		}
	}
	warnMeta("shards", oldA.Shards, newA.Shards)
	warnMeta("GOMAXPROCS", oldA.GoMaxProcs, newA.GoMaxProcs)
	warnMeta("cpu count", oldA.NumCPU, newA.NumCPU)
	warnMeta("sweep workers", oldA.SweepWorkers, newA.SweepWorkers)

	newBy := make(map[string]Bench, len(newA.Benchmarks))
	for _, b := range newA.Benchmarks {
		newBy[b.Name] = b
	}
	oldBy := make(map[string]Bench, len(oldA.Benchmarks))
	names := make([]string, 0, len(oldA.Benchmarks))
	for _, b := range oldA.Benchmarks {
		oldBy[b.Name] = b
		names = append(names, b.Name)
	}
	for _, b := range newA.Benchmarks {
		if _, ok := oldBy[b.Name]; !ok {
			names = append(names, b.Name)
		}
	}
	sort.Strings(names)

	for _, name := range names {
		ob, hasOld := oldBy[name]
		nb, hasNew := newBy[name]
		switch {
		case !hasOld || (len(ob.Samples) == 0 && hasNew):
			// No baseline to regress against: a fresh benchmark, or an
			// old entry that holds no samples.
			rep.Added++
			rep.Deltas = append(rep.Deltas, BenchDelta{
				Name: name, Status: DiffAdded, NewMedian: nb.Median(),
			})
			continue
		case !hasNew || len(nb.Samples) == 0:
			rep.Regressions++
			rep.Deltas = append(rep.Deltas, BenchDelta{
				Name: name, Status: DiffMissing, OldMedian: ob.Median(),
				Verdict: spec.AbsoluteFaulty.String(),
			})
			continue
		}
		d := diffOne(name, ob, nb, cfg)
		switch d.Status {
		case DiffRegression:
			rep.Regressions++
		case DiffImproved:
			rep.Improved++
		case DiffDeclining:
			rep.Declining++
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	return rep
}

// rateOf converts ns/op to throughput (ops per second); non-positive or
// absurd samples count as zero progress, which the detector promotes.
func rateOf(ns float64) float64 {
	if ns <= 0 {
		return 0
	}
	return 1e9 / ns
}

// sampleRate converts one sample to a throughput the detectors can
// compare: units ending in "/s" (events/s, ops/s) are already rates —
// bigger is better — and pass through; anything else (ns/op, B/op,
// allocs/op) is a cost per operation, lower is better, and is inverted.
func sampleRate(unit string, s float64) float64 {
	if strings.HasSuffix(unit, "/s") {
		if s <= 0 {
			return 0
		}
		return s
	}
	return rateOf(s)
}

func diffOne(name string, ob, nb Bench, cfg PerfDiffConfig) BenchDelta {
	d := BenchDelta{Name: name, Status: DiffOK, OldMedian: ob.Median(), NewMedian: nb.Median()}
	if strings.HasSuffix(nb.Unit, "/s") {
		if d.OldMedian > 0 {
			d.Ratio = d.NewMedian / d.OldMedian
		}
	} else if d.NewMedian > 0 {
		d.Ratio = d.OldMedian / d.NewMedian
	}

	win := detect.NewWindowDetector(detect.WindowConfig{
		BaselineSamples:  len(ob.Samples),
		RecentSamples:    len(nb.Samples),
		Threshold:        cfg.Threshold,
		PromotionTimeout: float64(len(nb.Samples)) + 1,
	})
	var det detect.Detector = win
	if cfg.Audit != nil {
		det = detect.NewAudited(win, cfg.Audit, name)
	}
	t := 0.0
	for _, s := range ob.Samples {
		det.Observe(t, sampleRate(ob.Unit, s))
		t++
	}
	for _, s := range nb.Samples {
		det.Observe(t, sampleRate(nb.Unit, s))
		t++
	}
	v := det.Verdict(t - 1)
	d.Verdict = v.String()
	if v != spec.Nominal {
		d.Status = DiffRegression
		return d
	}
	if d.Ratio > 1/cfg.Threshold {
		d.Status = DiffImproved
		return d
	}

	// Medians pass: check for a sustained decline across the whole
	// old+new sequence — the wearing-out early indicator.
	total := len(ob.Samples) + len(nb.Samples)
	if total >= 4 {
		w := total
		if w > 32 {
			w = 32
		}
		tr := detect.NewTrendDetector(detect.TrendConfig{
			WindowSamples: w, DeclineFrac: cfg.DeclineFrac,
		})
		t = 0
		for _, s := range ob.Samples {
			tr.Observe(t, sampleRate(ob.Unit, s))
			t++
		}
		for _, s := range nb.Samples {
			tr.Observe(t, sampleRate(nb.Unit, s))
			t++
		}
		if tr.Verdict(t-1) != spec.Nominal {
			d.Status = DiffDeclining
		}
	}
	return d
}

// WriteText renders the diff as an aligned table plus a one-line
// summary.
func (r *PerfDiffReport) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "perfdiff (threshold %.2f: flag when new throughput < %.0f%% of old)\n",
		r.Threshold, 100*r.Threshold)
	for _, warn := range r.Warnings {
		fmt.Fprintf(bw, "  warning: %s\n", warn)
	}
	fmt.Fprintf(bw, "  %-44s %12s %12s %7s  %s\n", "benchmark", "old", "new", "ratio", "status")
	for _, d := range r.Deltas {
		ratio := "-"
		if d.Ratio > 0 {
			ratio = fmt.Sprintf("%.3f", d.Ratio)
		}
		fmt.Fprintf(bw, "  %-44s %12.4g %12.4g %7s  %s\n",
			d.Name, d.OldMedian, d.NewMedian, ratio, d.Status)
	}
	fmt.Fprintf(bw, "summary: %d benchmarks, %d regressed, %d improved, %d declining, %d added\n",
		len(r.Deltas), r.Regressions, r.Improved, r.Declining, r.Added)
	return bw.Flush()
}
