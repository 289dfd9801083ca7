package stats

import (
	"math"
	"math/rand"
	"testing"
)

// Property: across >= 10k random streams, the window's incremental
// median/quantile (sorted companion) is bit-identical to copying the
// values and sorting, at every step of the stream.
func TestWindowQuantilesMatchSortReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for stream := 0; stream < 10000; stream++ {
		capacity := 1 + rng.Intn(16)
		w := NewWindow(capacity)
		steps := 2 + rng.Intn(3*capacity)
		for i := 0; i < steps; i++ {
			var x float64
			if rng.Intn(4) == 0 {
				x = float64(rng.Intn(4)) // force duplicates
			} else {
				x = rng.NormFloat64() * 50
			}
			w.Observe(x)
			ref := w.Values()
			q := rng.Float64()
			if got, want := w.Quantile(q), Quantile(ref, q); !sameFloat(got, want) {
				t.Fatalf("stream %d step %d: Quantile(%v) = %v, want %v (window %v)",
					stream, i, q, got, want, ref)
			}
			if got, want := w.Median(), Median(ref); !sameFloat(got, want) {
				t.Fatalf("stream %d step %d: Median = %v, want %v (window %v)",
					stream, i, got, want, ref)
			}
		}
	}
}

func TestWindowNaNObservations(t *testing.T) {
	w := NewWindow(3)
	w.Observe(1)
	w.Observe(math.NaN())
	w.Observe(3)
	// Quantiles match the sort-based reference (NaNs order first).
	if got, want := w.Median(), Median(w.Values()); !sameFloat(got, want) {
		t.Fatalf("Median with NaN = %v, want %v", got, want)
	}
	// Once the NaN is evicted the median recovers exactly.
	w.Observe(5)
	w.Observe(7)
	if got := w.Median(); got != 5 {
		t.Fatalf("Median after NaN eviction = %v, want 5", got)
	}
}

func TestWindowAtAndValues(t *testing.T) {
	w := NewWindow(3)
	for _, v := range []float64{1, 2, 3, 4} {
		w.Observe(v)
	}
	for i, want := range []float64{2, 3, 4} {
		if got := w.At(i); got != want {
			t.Fatalf("At(%d) = %v, want %v", i, got, want)
		}
	}
	got := w.Values()
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("Values = %v", got)
	}
	got[0] = 99 // a fresh slice: writing it leaves the window alone
	if w.At(0) != 2 {
		t.Fatal("Values aliases the window's ring")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	w.At(3)
}

// The steady-state observation and query path of a full window must not
// allocate: this is the per-completion-event cost of always-on detection.
func TestWindowSteadyStateDoesNotAllocate(t *testing.T) {
	w := NewWindow(64)
	for i := 0; i < 128; i++ {
		w.Observe(float64(i % 17))
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		i++
		w.Observe(float64(i % 13))
		_ = w.Median()
		_ = w.Quantile(0.95)
	}); n != 0 {
		t.Fatalf("steady-state window path allocates %v per run", n)
	}
}
