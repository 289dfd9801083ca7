package experiments

import (
	"fmt"
	"runtime"
	"sort"

	"failstutter/internal/sim"
)

// Config parameterizes a run of the suite.
type Config struct {
	// Seed drives every random stream; identical seeds reproduce
	// identical virtual-time results exactly.
	Seed uint64
	// Quick shrinks workload sizes and wall-clock durations so the full
	// suite runs in seconds — used by tests and benches. Full runs (the
	// CLI default) use the paper-scale parameters.
	Quick bool
	// Trace records causal spans for each experiment's simulations,
	// exportable as Chrome trace-event JSON via Table.Telemetry.
	Trace bool
	// Audit records every verdict state-machine decision with evidence.
	Audit bool
	// Metrics records labeled counters/histograms/series in a registry.
	Metrics bool
	// Profile enables the profiling plane: implies Trace and Metrics,
	// and additionally samples station occupancy (queue depth, backlog)
	// on every transition so the profiler can reconstruct queue
	// profiles. Critical-path, folded-stack, and SLO artifacts derive
	// from the resulting telemetry.
	Profile bool
	// Shards is the shard count for experiments that run on the sharded
	// parallel kernel — the fleet (E32), the switch fabric (E10–E12), and
	// the cluster plane (E14/E15/E23/E24/E29); 0 means one shard per
	// core. Tables and telemetry are byte-identical at any value — the
	// setting only trades wall-clock for cores.
	Shards int
	// SweepWorkers is ignored: fleet-wide barrier sweeps fan across one
	// worker per shard.
	//
	// Deprecated: kept only so existing callers that set it still build.
	SweepWorkers int
	// ObserveBarrier, when non-nil, receives every sharded kernel's
	// post-run barrier cost profile, tagged with a run label. Setting it
	// enables the kernel's profile counters at construction. `fstutter
	// profile` uses the hook to build the barrier report; everything in
	// the stats is deterministic except the two wall-clock nanosecond
	// fields.
	ObserveBarrier func(run string, st sim.BarrierStats, perShard []uint64)
}

// ShardCount resolves the Shards setting: the configured count, or
// GOMAXPROCS when unset.
func (cfg Config) ShardCount() int {
	if cfg.Shards > 0 {
		return cfg.Shards
	}
	return runtime.GOMAXPROCS(0)
}

// newSharded builds a sharded kernel for an experiment, enabling the
// barrier cost counters when a profile hook is installed (they must be
// on before the run; collection costs two clock reads per window).
func (cfg Config) newSharded(shards int, lookahead sim.Duration) *sim.ShardedSimulator {
	ss := sim.NewSharded(shards, lookahead)
	if cfg.ObserveBarrier != nil {
		ss.Profile()
	}
	return ss
}

// observeBarrier reports one sharded kernel's post-run barrier profile
// to the configured hook, if any.
func (cfg Config) observeBarrier(run string, ss *sim.ShardedSimulator) {
	if cfg.ObserveBarrier != nil {
		cfg.ObserveBarrier(run, *ss.Profile(), ss.PerShardFired())
	}
}

// Experiment is one registered reproduction. Every experiment runs on its
// own virtual-time simulator, so results are deterministic and RunAll may
// fan experiments across workers freely.
type Experiment struct {
	ID         string
	Title      string
	PaperClaim string
	Run        func(cfg Config) *Table
}

var registry = map[string]Experiment{}

// register adds an experiment at package init; duplicate ids panic.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %s", e.ID))
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return e, nil
}

// All returns every experiment, ordered by id (the E-series then the
// A-series ablations).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		// E-series before A-series, numeric within series.
		pi, pj := out[i].ID[0], out[j].ID[0]
		if pi != pj {
			return pi == 'E'
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// IDs returns every registered id in display order.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}
