package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sameFloat reports bitwise-meaningful equality: equal values or both NaN.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func randSlice(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Intn(10) {
		case 0:
			xs[i] = float64(rng.Intn(5)) // force duplicates
		default:
			xs[i] = rng.NormFloat64() * 100
		}
	}
	return xs
}

// Property: Select returns exactly the k-th element of the sorted slice,
// for every k, on random data with duplicates.
func TestSelectMatchesSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		xs := randSlice(rng, n)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for k := 0; k < n; k++ {
			work := append([]float64(nil), xs...)
			got := Select(work, k)
			if got != sorted[k] {
				t.Fatalf("trial %d: Select(%v, %d) = %v, want %v", trial, xs, k, got, sorted[k])
			}
			// Partition invariant: xs[k] in place, halves on either side.
			for i := 0; i < k; i++ {
				if floatLess(work[k], work[i]) {
					t.Fatalf("trial %d: prefix element %v above selected %v", trial, work[i], work[k])
				}
			}
			for i := k + 1; i < n; i++ {
				if floatLess(work[i], work[k]) {
					t.Fatalf("trial %d: suffix element %v below selected %v", trial, work[i], work[k])
				}
			}
		}
	}
}

func TestSelectNaNOrdering(t *testing.T) {
	nan := math.NaN()
	xs := []float64{3, nan, 1, nan, 2}
	if got := Select(append([]float64(nil), xs...), 0); !math.IsNaN(got) {
		t.Fatalf("Select k=0 = %v, want NaN first like sort.Float64s", got)
	}
	if got := Select(append([]float64(nil), xs...), 2); got != 1 {
		t.Fatalf("Select k=2 = %v, want 1", got)
	}
	if got := Select(append([]float64(nil), xs...), 4); got != 3 {
		t.Fatalf("Select k=4 = %v, want 3", got)
	}
}

func TestSelectOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Select out of range did not panic")
		}
	}()
	Select([]float64{1, 2}, 2)
}

// Property: QuantileInPlace is bit-identical to the copy-and-sort
// Quantile, including interpolated positions, on random data.
func TestQuantileInPlaceMatchesQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(30)
		xs := randSlice(rng, n)
		q := rng.Float64()
		if trial%5 == 0 {
			q = []float64{0, 0.25, 0.5, 0.75, 1}[rng.Intn(5)]
		}
		want := Quantile(xs, q)
		got := QuantileInPlace(append([]float64(nil), xs...), q)
		if !sameFloat(got, want) {
			t.Fatalf("trial %d: QuantileInPlace(%v, %v) = %v, want %v", trial, xs, q, got, want)
		}
	}
	if !math.IsNaN(QuantileInPlace(nil, 0.5)) || !math.IsNaN(QuantileInPlace([]float64{1}, -0.1)) {
		t.Fatal("degenerate QuantileInPlace not NaN")
	}
	if !sameFloat(MedianInPlace([]float64{3, 1, 2}), 2) {
		t.Fatal("MedianInPlace wrong")
	}
}

func TestQuantileSortedMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		xs := randSlice(rng, 1+rng.Intn(20))
		sort.Float64s(xs)
		q := rng.Float64()
		if got, want := QuantileSorted(xs, q), Quantile(xs, q); !sameFloat(got, want) {
			t.Fatalf("QuantileSorted = %v, want %v", got, want)
		}
	}
}

// TestSearchSorted pins searchFirstGE, the insertion-point search behind
// the Window's sorted companion.
func TestSearchSorted(t *testing.T) {
	s := []float64{1, 2, 2, 4}
	for _, tc := range []struct {
		x    float64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 3}, {4, 3}, {5, 4}} {
		if got := searchFirstGE(s, tc.x); got != tc.want {
			t.Fatalf("searchFirstGE(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestSelectAndQuantileInPlaceDoNotAllocate(t *testing.T) {
	xs := benchData(1024)
	work := make([]float64, len(xs))
	if n := testing.AllocsPerRun(100, func() {
		copy(work, xs)
		Select(work, 512)
	}); n != 0 {
		t.Fatalf("Select allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		copy(work, xs)
		QuantileInPlace(work, 0.99)
	}); n != 0 {
		t.Fatalf("QuantileInPlace allocates %v per run", n)
	}
}

// refMedianExcluding is the sort reference for MedianBand: sort a copy
// of xs, remove the first element not less than x under floatLess — x's
// first occurrence when present — and read QuantileSorted(rest, 0.5). NaN
// when no element is removed or none remains.
func refMedianExcluding(xs []float64, x float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, v := range sorted {
		if !floatLess(v, x) {
			rest := append(sorted[:i:i], sorted[i+1:]...)
			return QuantileSorted(rest, 0.5)
		}
	}
	return math.NaN()
}

// bandMatchesRef fills a band from a copy of xs and checks its
// exclude-one median for x against refMedianExcluding. Bits must match,
// except between values floatLess cannot order apart (±0, NaN payloads):
// which of those a rank holds is unspecified under the sort reference
// too. sameFloat is exactly that comparison.
func bandMatchesRef(t *testing.T, xs []float64, x float64) {
	t.Helper()
	var b MedianBand
	b.Fill(append([]float64(nil), xs...))
	got, want := b.MedianExcluding(x), refMedianExcluding(xs, x)
	if !sameFloat(got, want) {
		t.Fatalf("MedianBand(%v).MedianExcluding(%v) = %v, want %v", xs, x, got, want)
	}
}

// Property: a MedianBand filled from xs gives, for every x, the bits of
// removing the first sorted element not less than x and reading the
// median of the rest, and NaN when no element is removed. Slices of 1 to
// 20 elements hold duplicates and NaNs in arbitrary order; x is drawn
// from the slice, between its elements, above its maximum, or NaN.
func TestMedianBandMatchesCopyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4000; trial++ {
		xs := randSlice(rng, 1+rng.Intn(20))
		for i := range xs {
			if rng.Intn(8) == 0 {
				xs[i] = math.NaN()
			}
		}
		top := xs[0]
		for _, v := range xs {
			if floatLess(top, v) {
				top = v
			}
		}
		var x float64
		switch rng.Intn(4) {
		case 0:
			x = xs[rng.Intn(len(xs))]
		case 1:
			x = float64(rng.Intn(5)) + 0.5 // absent: between the forced duplicates
		case 2:
			x = math.Inf(1)
			if !math.IsInf(top, 1) {
				x = top + 1 // above the maximum (or any number, if all NaN)
			}
		case 3:
			x = math.NaN()
		}
		bandMatchesRef(t, xs, x)
	}
	nan := math.NaN()
	for _, tc := range []struct {
		xs      []float64
		x, want float64
	}{
		{[]float64{1}, 1, nan},             // n = 1: no peer remains
		{[]float64{1, 2}, 1, 2},            // n = 2: the other element
		{[]float64{2, 1}, 2, 1},            // n = 2, excluding the maximum
		{[]float64{1, 2}, 3, nan},          // above the maximum
		{[]float64{1, 1}, 1, 1},            // duplicates are interchangeable
		{[]float64{1, nan}, nan, 1},        // NaN excludes the NaN
		{[]float64{3, 1, 2}, 2, 2},         // n = 3: the mean of the other two
		{[]float64{3, 1, 2}, 1, 2.5},       // n = 3, excluding the minimum
		{[]float64{4, 1, 3, 2}, 3, 2},      // n = 4: the middle of three
		{[]float64{4, 1, 3, 2}, 1, 3},      // n = 4, excluding the minimum
		{[]float64{5, 1, 4, 2, 3}, 3, 3},   // n = 5: the mean of ranks 1 and 2
		{[]float64{5, 1, 4, 2, 3}, 5, 2.5}, // n = 5, excluding the maximum
		{[]float64{2, 2, 1, 2, 3}, 2, 2},   // n = 5 with ties at the middle
	} {
		var b MedianBand
		b.Fill(append([]float64(nil), tc.xs...))
		if got := b.MedianExcluding(tc.x); !sameFloat(got, tc.want) {
			t.Fatalf("MedianBand(%v).MedianExcluding(%v) = %v, want %v", tc.xs, tc.x, got, tc.want)
		}
		bandMatchesRef(t, tc.xs, tc.x)
	}
}

// TestMedianBandFillDoesNotAllocate pins the band's refill, which the
// fleet sweep runs once per barrier over every member's median, at zero
// allocations.
func TestMedianBandFillDoesNotAllocate(t *testing.T) {
	xs := benchData(1 << 12)
	work := make([]float64, len(xs))
	var b MedianBand
	if n := testing.AllocsPerRun(100, func() {
		copy(work, xs)
		b.Fill(work)
		b.MedianExcluding(xs[7])
	}); n != 0 {
		t.Fatalf("MedianBand.Fill allocates %v per run", n)
	}
}
