package experiments

import (
	"fmt"

	"failstutter/internal/faults"
	"failstutter/internal/raid"
	"failstutter/internal/sim"
)

// Scenario parameters shared by E01-E03: N mirror pairs writing D blocks,
// with N-1 pairs at B and one pair at b < B (the paper's notation).
const (
	scenarioPairs = 4
	scenarioB     = 1e6    // healthy pair bandwidth, bytes/s
	scenarioSmall = 0.25e6 // slow pair bandwidth, bytes/s
)

func scenarioRates() []float64 {
	rates := make([]float64, scenarioPairs)
	for i := range rates {
		rates[i] = scenarioB
	}
	rates[scenarioPairs-1] = scenarioSmall
	return rates
}

func init() {
	register(Experiment{
		ID:    "E01",
		Title: "Scenario 1: fail-stop design tracks the slow pair",
		PaperClaim: "with N-1 pairs at B and one at b, equal striping yields " +
			"perceived throughput N*b (Section 3.2, scenario 1)",
		Run: runE01,
	})
	register(Experiment{
		ID:    "E02",
		Title: "Scenario 2: install-time gauging recovers (N-1)B+b, until drift",
		PaperClaim: "proportional striping from install-time ratios yields " +
			"(N-1)*B + b; 'if any disk does not perform as expected over time, " +
			"performance again tracks the slow disk' (Section 3.2, scenario 2)",
		Run: runE02,
	})
	register(Experiment{
		ID:    "E03",
		Title: "Scenario 3: continuous adaptation holds full bandwidth",
		PaperClaim: "continually gauging and writing in proportion to current " +
			"rates delivers the full available bandwidth under a wide range of " +
			"performance faults, at the cost of increased bookkeeping (Section 3.2)",
		Run: runE03,
	})
	register(Experiment{
		ID:    "E04",
		Title: "Striping tracks the slowest disk",
		PaperClaim: "if performance of a single disk is consistently lower than " +
			"the rest, the performance of the entire storage system tracks the " +
			"single slow disk (Section 1)",
		Run: runE04,
	})
	register(Experiment{
		ID:    "E21",
		Title: "Incremental growth: old parts as perf-faulty new parts",
		PaperClaim: "adding faster components is handled naturally, because the " +
			"older components simply appear to be performance-faulty versions " +
			"of the new ones (Section 3.3, manageability)",
		Run: runE21,
	})
	register(Experiment{
		ID:    "A2",
		Title: "Ablation: adaptive re-gauge interval vs throughput and bookkeeping",
		PaperClaim: "because these proportions may change over time, the " +
			"controller must record where each block is written (Section 3.2)",
		Run: runA2,
	})
}

func runE01(cfg Config) *Table {
	blocks := scale(cfg, 2000, 20000)
	t := NewTable("E01", "Scenario 1: fail-stop design tracks the slow pair",
		"throughput = N*b when one pair runs at b",
		"design", "measured", "paper-predicted")
	tel := cfg.telemetry()
	t.Telemetry = tel
	res := runStriper(tel, "static-equal", scenarioRates(), blocks, raid.StaticEqual{}, nil)
	predicted := float64(scenarioPairs) * scenarioSmall
	t.AddRow("static-equal (fail-stop)", mb(res.Throughput), mb(predicted))
	t.SetMetric("throughput", res.Throughput)
	t.SetMetric("predicted", predicted)
	t.SetMetric("rel_error", relErr(res.Throughput, predicted))
	t.AddNote("N=%d pairs, B=%s, b=%s, D=%d blocks", scenarioPairs, mb(scenarioB), mb(scenarioSmall), blocks)
	return t
}

func runE02(cfg Config) *Table {
	blocks := scale(cfg, 4000, 40000)
	t := NewTable("E02", "Scenario 2: install-time gauging",
		"throughput = (N-1)*B + b under static faults; drift reverts to tracking the slow disk",
		"condition", "design", "measured", "paper-predicted")

	tel := cfg.telemetry()
	t.Telemetry = tel

	// Static fault: gauging sees the slow pair and compensates.
	res := runStriper(tel, "gauged-static", scenarioRates(), blocks, raid.GaugedProportional{ProbeBlocks: 32}, nil)
	predicted := float64(scenarioPairs-1)*scenarioB + scenarioSmall
	t.AddRow("static slow pair", "gauged-proportional", mb(res.Throughput), mb(predicted))
	t.SetMetric("throughput_static", res.Throughput)
	t.SetMetric("predicted_static", predicted)
	t.SetMetric("rel_error_static", relErr(res.Throughput, predicted))

	// Drift after gauging: all pairs healthy at install, one degrades
	// mid-job; the frozen ratios revert the design to scenario-1 behaviour.
	healthy := make([]float64, scenarioPairs)
	for i := range healthy {
		healthy[i] = scenarioB
	}
	// Gauging 32 probe blocks per pair takes ~0.6 s of simulated time; the
	// step lands early in the measured job so most of it runs degraded.
	drift := func(s *sim.Simulator, a *raid.Array) {
		faults.StepAt{At: 2, Factor: scenarioSmall / scenarioB}.
			Install(s, a.Pairs()[0].A.Composite())
	}
	resDrift := runStriper(tel, "gauged-drift", healthy, blocks, raid.GaugedProportional{ProbeBlocks: 32}, drift)
	t.AddRow("drift after gauge", "gauged-proportional", mb(resDrift.Throughput), "between N*b and (N-1)B+b")
	t.SetMetric("throughput_drift", resDrift.Throughput)
	return t
}

func runE03(cfg Config) *Table {
	blocks := scale(cfg, 6000, 40000)
	t := NewTable("E03", "Scenario 3: continuous adaptation",
		"full available bandwidth under static and dynamic faults",
		"condition", "design", "measured", "available bandwidth")

	tel := cfg.telemetry()
	t.Telemetry = tel

	available := float64(scenarioPairs-1)*scenarioB + scenarioSmall
	res := runStriper(tel, "adaptive-static", scenarioRates(), blocks, raid.AdaptivePull{Depth: 2}, nil)
	t.AddRow("static slow pair", "adaptive-pull", mb(res.Throughput), mb(available))
	t.SetMetric("throughput_static", res.Throughput)
	t.SetMetric("available_static", available)

	// Dynamic fault: a pair spends 75% of its time at 5% speed (a severe
	// recurring stutter — background scrubs, thermal recals).
	oscillate := func(s *sim.Simulator, a *raid.Array) {
		faults.PeriodicStall{Period: 2, Duration: 1.5, Factor: 0.05, Until: 1e6}.
			Install(s, a.Pairs()[0].A.Composite())
	}
	healthy := make([]float64, scenarioPairs)
	for i := range healthy {
		healthy[i] = scenarioB
	}
	// Average available bandwidth: pair 0 delivers 0.25 + 0.75*0.05 of B.
	availDyn := float64(scenarioPairs-1)*scenarioB + 0.2875*scenarioB
	resStatic := runStriper(tel, "static-oscillating", healthy, blocks, raid.StaticEqual{}, oscillate)
	resAdapt := runStriper(tel, "adaptive-oscillating", healthy, blocks, raid.AdaptivePull{Depth: 2}, oscillate)
	resWave := runStriper(tel, "wave-oscillating", healthy, blocks, raid.AdaptiveWave{Interval: 0.25, WaveBlocks: 400}, oscillate)
	t.AddRow("oscillating pair", "static-equal", mb(resStatic.Throughput), mb(availDyn))
	t.AddRow("oscillating pair", "adaptive-pull", mb(resAdapt.Throughput), mb(availDyn))
	t.AddRow("oscillating pair", "adaptive-wave", mb(resWave.Throughput), mb(availDyn))
	t.SetMetric("throughput_dyn_static", resStatic.Throughput)
	t.SetMetric("throughput_dyn_adaptive", resAdapt.Throughput)
	t.SetMetric("throughput_dyn_wave", resWave.Throughput)
	t.SetMetric("bookkeeping_adaptive", float64(resAdapt.Bookkeeping))
	t.AddNote("adaptive bookkeeping grows one entry per block placed; static uses none")
	return t
}

func runE04(cfg Config) *Table {
	blocks := scale(cfg, 1500, 15000)
	t := NewTable("E04", "Striping tracks the slowest disk",
		"array throughput is proportional to the slowest member's rate",
		"slow-disk deficit", "array throughput", "slowest-disk prediction")
	tel := cfg.telemetry()
	t.Telemetry = tel
	for _, deficit := range []float64{0, 0.1, 0.25, 0.5, 0.75} {
		rates := []float64{scenarioB, scenarioB, scenarioB, scenarioB * (1 - deficit)}
		res := runStriper(tel, fmt.Sprintf("deficit-%.0f%%", deficit*100), rates, blocks, raid.StaticEqual{}, nil)
		predicted := 4 * scenarioB * (1 - deficit)
		t.AddRow(fmt.Sprintf("%.0f%%", deficit*100), mb(res.Throughput), mb(predicted))
		t.SetMetric(fmt.Sprintf("throughput_%.0f", deficit*100), res.Throughput)
		t.SetMetric(fmt.Sprintf("predicted_%.0f", deficit*100), predicted)
	}
	return t
}

func runE21(cfg Config) *Table {
	blocks := scale(cfg, 3000, 30000)
	t := NewTable("E21", "Incremental growth",
		"a fail-stutter design uses heterogeneous old+new parts at their actual rates",
		"design", "measured", "ideal")
	// Two old pairs at 0.5 MB/s, two newer pairs at 2 MB/s.
	tel := cfg.telemetry()
	t.Telemetry = tel
	rates := []float64{0.5e6, 0.5e6, 2e6, 2e6}
	ideal := 5e6
	static := runStriper(tel, "static-equal", rates, blocks, raid.StaticEqual{}, nil)
	adaptive := runStriper(tel, "adaptive-pull", rates, blocks, raid.AdaptivePull{Depth: 2}, nil)
	t.AddRow("static-equal (fail-stop)", mb(static.Throughput), mb(ideal))
	t.AddRow("adaptive-pull (fail-stutter)", mb(adaptive.Throughput), mb(ideal))
	t.SetMetric("throughput_static", static.Throughput)
	t.SetMetric("throughput_adaptive", adaptive.Throughput)
	t.SetMetric("ideal", ideal)
	t.AddNote("static is pinned at 4x the old pairs' rate (%s); no operator tuning was configured for either design", mb(4*0.5e6))
	return t
}

func runA2(cfg Config) *Table {
	blocks := scale(cfg, 3000, 20000)
	t := NewTable("A2", "Ablation: re-gauge interval",
		"faster re-gauging tracks dynamic faults better; bookkeeping is one record per block either way",
		"re-gauge interval", "throughput", "bookkeeping entries", "reissued")
	oscillate := func(s *sim.Simulator, a *raid.Array) {
		faults.PeriodicStall{Period: 2, Duration: 1, Factor: 0.2, Until: 1e6}.
			Install(s, a.Pairs()[0].A.Composite())
	}
	healthy := make([]float64, scenarioPairs)
	for i := range healthy {
		healthy[i] = scenarioB
	}
	tel := cfg.telemetry()
	t.Telemetry = tel
	for _, interval := range []float64{0.1, 0.25, 0.5, 1, 2, 4} {
		res := runStriper(tel, fmt.Sprintf("wave-%.2gs", interval), healthy, blocks, raid.AdaptiveWave{Interval: interval, WaveBlocks: 400}, oscillate)
		t.AddRow(fmt.Sprintf("%.2g s", interval), mb(res.Throughput),
			fmt.Sprintf("%d", res.Bookkeeping), fmt.Sprintf("%d", res.Reissued))
		t.SetMetric(fmt.Sprintf("throughput_%.2g", interval), res.Throughput)
	}
	return t
}

// relErr returns |a-b| / b.
func relErr(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}
