package detect

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"failstutter/internal/spec"
)

// testPool is a throwaway Parallel executor for tests: real goroutines,
// no reuse machinery, so the tests exercise the sweep engine's contract
// without depending on the sim package's pool.
type testPool struct{ n int }

func (p testPool) Workers() int { return p.n }
func (p testPool) Do(fn func(worker int)) {
	var wg sync.WaitGroup
	for w := 1; w < p.n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	fn(0)
	wg.Wait()
}

// TestSweepMatchesSerial drives two identical fleets — one through the
// per-id Observe/Verdict path, one through SweepObserve/SweepVerdicts on
// a multi-worker pool — and requires identical verdicts and flag counts
// at every sweep, at fleet sizes from 64 to 1124 members.
func TestSweepMatchesSerial(t *testing.T) {
	for _, peers := range []int{64, 562, 1124} {
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("peers=%d/workers=%d", peers, workers), func(t *testing.T) {
				cfg := PeerConfig{WindowSamples: 4, Threshold: 0.7, MinPeers: 4, PromotionTimeout: 2.5}
				serial := NewPeerSet(cfg)
				swept := NewPeerSet(cfg)
				ids := make([]string, peers)
				for i := range ids {
					ids[i] = fmt.Sprintf("d%05d", i)
					if got := swept.Register(ids[i]); got != i {
						t.Fatalf("Register(%q) = %d, want dense index %d", ids[i], got, i)
					}
				}
				if swept.MemberCount() != peers {
					t.Fatalf("MemberCount() = %d, want %d", swept.MemberCount(), peers)
				}
				pool := testPool{n: workers}
				rng := rand.New(rand.NewSource(int64(peers)))
				rates := make([]float64, peers)
				verdicts := make([]spec.Verdict, peers)
				for round := 0; round < 8; round++ {
					now := float64(round + 1)
					for i := range rates {
						r := 90 + 20*rng.Float64()
						switch {
						case i%53 == 0 && round >= 3:
							r *= 0.2 // persistent stragglers
						case i%71 == 0 && round >= 4:
							r = 0 // silent members heading for promotion
						}
						rates[i] = r
					}
					for i, id := range ids {
						serial.Observe(id, now, rates[i])
					}
					swept.SweepObserve(pool, now, rates)
					flagged := swept.SweepVerdicts(pool, now, verdicts)
					count := 0
					for i, id := range ids {
						want := serial.Verdict(id, now)
						if verdicts[i] != want {
							t.Fatalf("round %d member %d: sweep verdict %v, serial %v", round, i, verdicts[i], want)
						}
						if want != spec.Nominal {
							count++
						}
					}
					if flagged != count {
						t.Fatalf("round %d: sweep flag count %d, serial %d", round, flagged, count)
					}
				}
			})
		}
	}
}

// TestSweepThenObserveKeepsMirrorConsistent interleaves a sweep with
// later per-id Observe calls on a small fleet: verdicts after the mix
// must match a serially-driven twin.
func TestSweepThenObserveKeepsMirrorConsistent(t *testing.T) {
	cfg := PeerConfig{WindowSamples: 3, Threshold: 0.7, MinPeers: 4}
	mixed := NewPeerSet(cfg)
	serial := NewPeerSet(cfg)
	const peers = 40
	ids := make([]string, peers)
	rates := make([]float64, peers)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%03d", i)
		mixed.Register(ids[i])
		rates[i] = 100 + float64(i%7)
	}
	rates[7] = 10 // one straggler
	mixed.SweepObserve(testPool{n: 4}, 1, rates)
	for i, id := range ids {
		serial.Observe(id, 1, rates[i])
	}
	// Per-id observes after the sweep: the dirty band must survive them.
	for i, id := range ids {
		mixed.Observe(id, 2, rates[i])
		serial.Observe(id, 2, rates[i])
	}
	for _, id := range ids {
		if got, want := mixed.Verdict(id, 2), serial.Verdict(id, 2); got != want {
			t.Fatalf("member %s after sweep+observe mix: verdict %v, want %v", id, got, want)
		}
	}
}

// TestSweepSizePanics pins the engine's length contracts.
func TestSweepSizePanics(t *testing.T) {
	p := NewPeerSet(PeerConfig{WindowSamples: 2, Threshold: 0.5, MinPeers: 2})
	p.Register("a")
	p.Register("b")
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on mismatched slice length", name)
			}
		}()
		fn()
	}
	expectPanic("SweepObserve", func() { p.SweepObserve(nil, 1, make([]float64, 3)) })
	expectPanic("SweepVerdicts", func() { p.SweepVerdicts(nil, 1, make([]spec.Verdict, 1)) })
}

// BenchmarkPeerSetParallelSweep times one full monitoring sweep — observe
// every member, classify every member — at fleet sizes 2^14 and 2^20
// across worker counts. ns/op divided by fleet size is the per-disk
// sweep cost the tentpole optimizes.
func BenchmarkPeerSetParallelSweep(b *testing.B) {
	for _, peers := range []int{1 << 14, 1 << 20} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("P=%d/w=%d", peers, workers), func(b *testing.B) {
				p := NewPeerSet(PeerConfig{WindowSamples: 4, Threshold: 0.7, MinPeers: 4})
				rates := make([]float64, peers)
				verdicts := make([]spec.Verdict, peers)
				for i := 0; i < peers; i++ {
					p.Register(fmt.Sprintf("disk%07d", i))
				}
				pool := testPool{n: workers}
				// One straggler per thousand members, in the warm-up
				// sweeps too: a single slow sample does not move a
				// 4-sample window's median, so a straggler injected only
				// in the timed loop would go unflagged at b.N = 1.
				fill := func(k int) {
					for i := range rates {
						rates[i] = 100 + float64((i+k)%13)
						if i%1000 == 0 {
							rates[i] = 5
						}
					}
				}
				for k := 0; k < 4; k++ {
					fill(k)
					p.SweepObserve(pool, float64(k), rates)
				}
				p.SweepVerdicts(pool, 3, verdicts)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					now := float64(4 + n)
					fill(n)
					p.SweepObserve(pool, now, rates)
					if p.SweepVerdicts(pool, now, verdicts) == 0 {
						b.Fatal("sweep flagged nothing; straggler injection broken")
					}
				}
			})
		}
	}
}
