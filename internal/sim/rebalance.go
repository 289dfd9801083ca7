package sim

import (
	"fmt"
	"sort"
)

// Load is one station's observed (or analytically estimated) cost: the
// event count it is expected to contribute to its shard. The unit does
// not matter — only the ratios do.
type Load struct {
	ID   string
	Cost float64
}

// RecommendPlacement balances stations across shards from per-station
// costs: greedy longest-processing-time — stations in (cost descending,
// id ascending) order each go to the currently lightest shard, lowest
// index on ties — so the plan is deterministic for a given load set. The
// returned station→shard plan is meant for SetPlacement, applied only at
// construction: placement is just another partition of the components,
// and the kernel's results are partition-invariant by the determinism
// protocol, so rebalancing trades wall-clock imbalance for nothing.
//
// Costs come from an analytic per-station event model, as the fleet
// experiment builds from its per-disk fault draws.
func RecommendPlacement(loads []Load, shards int) map[string]int {
	if shards < 1 {
		panic(fmt.Sprintf("sim: RecommendPlacement needs at least 1 shard, got %d", shards))
	}
	sorted := append([]Load(nil), loads...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Cost != sorted[j].Cost {
			return sorted[i].Cost > sorted[j].Cost
		}
		return sorted[i].ID < sorted[j].ID
	})
	bins := make([]float64, shards)
	plan := make(map[string]int, len(sorted))
	for _, l := range sorted {
		best := 0
		for s := 1; s < shards; s++ {
			if bins[s] < bins[best] {
				best = s
			}
		}
		bins[best] += l.Cost
		plan[l.ID] = best
	}
	return plan
}

// SetPlacement installs an explicit station→shard plan consulted by
// ShardFor before the identity hash; identities absent from the plan
// keep their hashed shard. Placement is construction-time only — a plan
// installed after events have fired would split a component's state
// across shards — so installing one mid-run panics. Every target shard
// must exist.
func (ss *ShardedSimulator) SetPlacement(plan map[string]int) {
	if ss.inWindow || ss.EventsFired() > 0 {
		panic("sim: SetPlacement after the run started; placement is construction-time only")
	}
	for id, shard := range plan {
		if shard < 0 || shard >= len(ss.shards) {
			panic(fmt.Sprintf("sim: placement maps %q to shard %d, have %d shards", id, shard, len(ss.shards)))
		}
	}
	ss.placement = plan
}
