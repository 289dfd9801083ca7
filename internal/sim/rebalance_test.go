package sim

import (
	"fmt"
	"math"
	"testing"
)

// TestRecommendPlacementBalances checks the greedy LPT plan: every
// station lands on a real shard, and the resulting bin spread beats the
// pathological all-on-one split by a wide margin on a skewed load set.
func TestRecommendPlacementBalances(t *testing.T) {
	const shards = 4
	var loads []Load
	total := 0.0
	for i := 0; i < 64; i++ {
		cost := float64(1 + i%7)
		if i%16 == 0 {
			cost = 40 // a few heavy hitters LPT must spread out
		}
		loads = append(loads, Load{ID: fmt.Sprintf("s%02d", i), Cost: cost})
		total += cost
	}
	plan := RecommendPlacement(loads, shards)
	if len(plan) != len(loads) {
		t.Fatalf("plan has %d stations, want %d", len(plan), len(loads))
	}
	bins := make([]float64, shards)
	for _, l := range loads {
		shard, ok := plan[l.ID]
		if !ok || shard < 0 || shard >= shards {
			t.Fatalf("station %s mapped to invalid shard %d", l.ID, shard)
		}
		bins[shard] += l.Cost
	}
	mean := total / shards
	for s, b := range bins {
		if math.Abs(b-mean) > 0.25*mean {
			t.Fatalf("shard %d holds %.0f of mean %.0f — LPT spread too uneven: %v", s, b, mean, bins)
		}
	}
}

// TestRecommendPlacementDeterministic requires identical plans from
// identical loads regardless of input order: the sort key (cost desc, id
// asc) must fully determine the outcome.
func TestRecommendPlacementDeterministic(t *testing.T) {
	loads := []Load{
		{"a", 3}, {"b", 3}, {"c", 5}, {"d", 1}, {"e", 5}, {"f", 2},
	}
	ref := RecommendPlacement(loads, 3)
	reversed := make([]Load, len(loads))
	for i, l := range loads {
		reversed[len(loads)-1-i] = l
	}
	got := RecommendPlacement(reversed, 3)
	for id, shard := range ref {
		if got[id] != shard {
			t.Fatalf("station %s: shard %d from forward order, %d from reversed", id, shard, got[id])
		}
	}
	if _, didPanic := func() (m map[string]int, p bool) {
		defer func() { p = recover() != nil }()
		return RecommendPlacement(loads, 0), false
	}(); !didPanic {
		t.Fatal("RecommendPlacement with 0 shards did not panic")
	}
}

// TestSetPlacementRouting checks that ShardFor consults the plan,
// unplanned identities keep their hashed shard, and the construction-time
// guards fire.
func TestSetPlacementRouting(t *testing.T) {
	ss := NewSharded(4, 1)
	hashed := ss.ShardFor("station-x")
	target := (hashed + 1) % 4
	ss.SetPlacement(map[string]int{"station-x": target})
	if got := ss.ShardFor("station-x"); got != target {
		t.Fatalf("planned station routed to shard %d, want %d", got, target)
	}
	if got := ss.ShardFor("station-y"); got != ss.ShardFor("station-y") || got < 0 || got >= 4 {
		t.Fatalf("unplanned station routed inconsistently or out of range: %d", got)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetPlacement with out-of-range shard did not panic")
			}
		}()
		ss2 := NewSharded(2, 1)
		ss2.SetPlacement(map[string]int{"z": 5})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetPlacement after events fired did not panic")
			}
		}()
		ss3 := NewSharded(2, 1)
		fired := false
		ss3.Shard(0).At(0.5, func() { fired = true })
		ss3.RunUntil(1)
		if !fired {
			t.Fatal("scheduled event never fired")
		}
		ss3.SetPlacement(map[string]int{"z": 0})
	}()
}
