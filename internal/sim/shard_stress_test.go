package sim

import (
	"fmt"
	"sort"
	"testing"
)

// shardStressResult is one run's observable outcome: the per-key firing
// sequences (times in order), the total event count and the barrier
// profile.
type shardStressResult struct {
	observed [][]float64
	fired    uint64
	prof     BarrierStats
}

// runShardStress drives ~100k events through a sharded kernel: 64 keyed
// components assigned to shards by identity hash, each growing a local
// event chain (with random Stops exercising arena reuse mid-run), plus
// cross-shard sends through the lookahead mailbox. It mirrors
// TestKernelStressCrossCheck, with the cross-shard dimension added.
//
// Every decision draws from a per-key RNG stream in the key's own event
// order, so the workload is identical at any shard count.
func runShardStress(t *testing.T, shards int) (shardStressResult, [][]float64) {
	t.Helper()
	const (
		keys     = 64
		initial  = 8
		capLocal = 1300
		capCross = 200
	)
	ss := NewSharded(shards, 1.0)
	prof := ss.Profile()
	root := NewRNG(777)

	observed := make([][]float64, keys)     // appended only by key's own shard
	localAt := make([][]float64, keys)      // every locally scheduled time
	localStopped := make([][]bool, keys)    // which of those were stopped
	crossSent := make([][][2]float64, keys) // per sender: (dstKey, at)
	timers := make([]map[int]Timer, keys)
	rngs := make([]*RNG, keys)
	localCount := make([]int, keys)
	crossCount := make([]int, keys)
	shardOf := make([]int, keys)
	for k := 0; k < keys; k++ {
		rngs[k] = root.Fork(fmt.Sprintf("key%02d", k))
		timers[k] = make(map[int]Timer)
		shardOf[k] = ss.ShardFor(fmt.Sprintf("key%02d", k))
	}

	var fire func(k, id int) func()
	schedule := func(k int, at Time) {
		sh := ss.Shard(shardOf[k])
		id := len(localAt[k])
		localAt[k] = append(localAt[k], at)
		localStopped[k] = append(localStopped[k], false)
		timers[k][id] = sh.At(at, fire(k, id))
		localCount[k]++
	}
	fire = func(k, id int) func() {
		return func() {
			sh := ss.Shard(shardOf[k])
			now := sh.Now()
			observed[k] = append(observed[k], now)
			delete(timers[k], id)
			rng := rngs[k]
			// Grow the local chain: two follow-ups until the key's budget
			// is spent, so slots churn while the run is in flight.
			for i := 0; i < 2 && localCount[k] < capLocal; i++ {
				schedule(k, now+0.01+rng.Float64()*2)
			}
			// Randomly stop one pending local timer.
			if rng.Float64() < 0.25 && len(localAt[k]) > 0 {
				victim := rng.Intn(len(localAt[k]))
				if tm, ok := timers[k][victim]; ok && tm.Stop() {
					localStopped[k][victim] = true
					delete(timers[k], victim)
				}
			}
			// Cross-shard send to another key, one lookahead or more ahead.
			if rng.Float64() < 0.2 && crossCount[k] < capCross {
				dst := (k + 1 + rng.Intn(keys-1)) % keys
				at := now + ss.Lookahead() + rng.Float64()
				crossSent[k] = append(crossSent[k], [2]float64{float64(dst), at})
				crossCount[k]++
				ss.Send(shardOf[k], shardOf[dst], at, fmt.Sprintf("key%02d", k), func() {
					observed[dst] = append(observed[dst], ss.Shard(shardOf[dst]).Now())
				})
			}
		}
	}
	for k := 0; k < keys; k++ {
		for i := 0; i < initial; i++ {
			schedule(k, rngs[k].Float64()*2)
		}
	}
	ss.Run()

	// Reference: per key, every locally scheduled un-stopped time plus
	// every time cross-sent to it, sorted ascending. Times are continuous
	// draws from independent streams, so per-key ties never arise and the
	// sorted order is the one legal firing order.
	want := make([][]float64, keys)
	for k := 0; k < keys; k++ {
		for id, at := range localAt[k] {
			if !localStopped[k][id] {
				want[k] = append(want[k], at)
			}
		}
	}
	for k := 0; k < keys; k++ {
		for _, s := range crossSent[k] {
			dst := int(s[0])
			want[dst] = append(want[dst], s[1])
		}
	}
	for k := 0; k < keys; k++ {
		sort.Float64s(want[k])
	}
	return shardStressResult{observed: observed, fired: ss.EventsFired(), prof: *prof}, want
}

// TestShardedKernelStressCrossCheck runs ~100k events at 1 and 4 shards:
// each key's observed firing sequence must match the independently
// computed time-sorted reference, and the two shard counts must agree
// bitwise with each other.
func TestShardedKernelStressCrossCheck(t *testing.T) {
	results := map[int]shardStressResult{}
	for _, shards := range []int{1, 4} {
		res, want := runShardStress(t, shards)
		total := 0
		for k := range res.observed {
			if len(res.observed[k]) != len(want[k]) {
				t.Fatalf("%d shards: key %d fired %d events, reference has %d",
					shards, k, len(res.observed[k]), len(want[k]))
			}
			for i := range want[k] {
				if res.observed[k][i] != want[k][i] {
					t.Fatalf("%d shards: key %d event %d fired at %v, reference %v",
						shards, k, i, res.observed[k][i], want[k][i])
				}
			}
			total += len(res.observed[k])
		}
		if total < 80000 {
			t.Fatalf("%d shards: stress run fired only %d keyed events, want ~100k — workload shrank", shards, total)
		}
		if res.fired != uint64(total) {
			t.Fatalf("%d shards: kernel counted %d fired events, keyed logs hold %d", shards, res.fired, total)
		}
		results[shards] = res
	}
	a, b := results[1], results[4]
	if a.fired != b.fired {
		t.Fatalf("event totals differ across shard counts: %d vs %d", a.fired, b.fired)
	}
	for k := range a.observed {
		for i := range a.observed[k] {
			if a.observed[k][i] != b.observed[k][i] {
				t.Fatalf("key %d event %d: fired at %v with 1 shard, %v with 4", k, i, a.observed[k][i], b.observed[k][i])
			}
		}
	}
}
