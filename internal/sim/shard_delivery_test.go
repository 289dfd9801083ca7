package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// TestKWayMergeMatchesSortReference feeds randomized cross-shard sends —
// with deliberate time ties across source shards and within one source —
// through the lane delivery path (concatenate, stable sort, At) and checks
// the firing order on every destination shard against an independently
// computed reference: the single-sort delivery order (time, source shard,
// source sequence), byte for byte, at shards 1/2/3/8 and seeds 1/42/1337.
func TestKWayMergeMatchesSortReference(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		for _, seed := range []uint64{1, 42, 1337} {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				const n = 5000
				ss := NewSharded(shards, 1)
				rng := NewRNG(seed)
				type rec struct {
					at  Time
					src int
					seq int // per-source send index
					id  int
					dst int
				}
				recs := make([]rec, 0, n)
				perSrc := make([]int, shards)
				fired := make([][]int, shards) // firing order of ids per dst shard
				for i := 0; i < n; i++ {
					src := rng.Intn(shards)
					dst := rng.Intn(shards)
					// Quantized times force plenty of cross-source ties.
					at := math.Round(rng.Float64()*200) * 0.25
					id, d := i, dst
					ss.Send(src, dst, at, "gen", func() {
						fired[d] = append(fired[d], id)
					})
					recs = append(recs, rec{at: at, src: src, seq: perSrc[src], id: i, dst: dst})
					perSrc[src]++
				}
				ss.Run()
				// Reference delivery order: (time, source shard, source seq).
				sort.Slice(recs, func(i, j int) bool {
					a, b := recs[i], recs[j]
					if a.at != b.at {
						return a.at < b.at
					}
					if a.src != b.src {
						return a.src < b.src
					}
					return a.seq < b.seq
				})
				want := make([][]int, shards)
				for _, r := range recs {
					want[r.dst] = append(want[r.dst], r.id)
				}
				for d := 0; d < shards; d++ {
					if len(fired[d]) != len(want[d]) {
						t.Fatalf("dst %d fired %d events, reference has %d", d, len(fired[d]), len(want[d]))
					}
					for i := range want[d] {
						if fired[d][i] != want[d][i] {
							t.Fatalf("dst %d position %d: fired id %d, reference id %d",
								d, i, fired[d][i], want[d][i])
						}
					}
				}
			})
		}
	}
}

// TestLaneSortFallback exercises the rare non-monotone sender: one event
// emitting cross-shard sends at decreasing times must still deliver in
// (time, seq) order.
func TestLaneSortFallback(t *testing.T) {
	ss := NewSharded(2, 1)
	var got []Time
	ss.Shard(0).At(0, func() {
		for _, at := range []Time{5, 3, 4, 1.5, 3} {
			at := at
			ss.Send(0, 1, at, "backwards-sender", func() {
				got = append(got, ss.Shard(1).Now())
			})
		}
	})
	ss.Run()
	want := []Time{1.5, 3, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d fired at %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestDeliveryIntoPastPanics: a send made outside a window (here, during
// setup) waits in its lane until the barrier after the next window. If the
// destination has run past the send's time by then, delivery must fail
// loudly rather than fire the event with the destination's clock running
// backwards (0.05, 0.5, then 0.1).
func TestDeliveryIntoPastPanics(t *testing.T) {
	ss := NewSharded(2, 1)
	var clock []Time
	record := func() { clock = append(clock, ss.Shard(1).Now()) }
	ss.Shard(1).At(0.05, record)
	ss.Shard(1).At(0.5, record)
	ss.Send(0, 1, 0.1, "setup", record)
	defer func() {
		const want = "sim: schedule at 0.1 before now 0.5"
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q (shard 1 fired at %v)", r, want, clock)
		}
	}()
	ss.Run()
}

// TestShardForBalance hashes 1M identities and checks the max/min shard
// population stays within 2% of the mean — the placement balance the
// plane ports rely on.
func TestShardForBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-identity balance check skipped in -short")
	}
	for _, shards := range []int{4, 8} {
		ss := NewSharded(shards, 1)
		counts := make([]int, shards)
		const n = 1 << 20
		for i := 0; i < n; i++ {
			counts[ss.ShardFor(fmt.Sprintf("component-%07d", i))]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		mean := float64(n) / float64(shards)
		if spread := float64(max-min) / mean; spread > 0.02 {
			t.Fatalf("%d shards: population spread %.4f of mean (min %d, max %d) exceeds 2%%",
				shards, spread, min, max)
		}
	}
}

// TestMailboxOrdersSameTimeDeliveries posts same-time cross-shard
// deliveries from several source shards into one component's mailbox and
// checks the drain replays them in key order — the placement-invariant
// order — at every shard count.
func TestMailboxOrdersSameTimeDeliveries(t *testing.T) {
	run := func(shards int) []uint64 {
		ss := NewSharded(shards, 1)
		home := ss.ShardFor("component-under-test")
		mb := NewMailbox(ss.Shard(home))
		var got []uint64
		// Senders live on distinct identities (hence possibly distinct
		// shards) and all deliver at t=2.
		for i := 0; i < 6; i++ {
			key := uint64(i)
			src := ss.ShardFor(fmt.Sprintf("sender-%d", i))
			ss.Shard(src).At(0.5, func() {
				ss.Send(src, home, 2, "sender", func() {
					mb.Post(^key, func() { got = append(got, key) }) // reversed keys
				})
			})
		}
		ss.Run()
		return got
	}
	want := run(1)
	if len(want) != 6 {
		t.Fatalf("drain ran %d posts, want 6", len(want))
	}
	// Keys were bit-flipped, so replay order is descending original key.
	for i, k := range want {
		if k != uint64(5-i) {
			t.Fatalf("position %d replayed key %d, want %d (order %v)", i, k, 5-i, want)
		}
	}
	for _, shards := range []int{2, 3, 8} {
		got := run(shards)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d shards: position %d key %d, serial %d", shards, i, got[i], want[i])
			}
		}
	}
}
