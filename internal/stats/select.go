package stats

import "math"

// floatLess is the total order used by sort.Float64s: NaNs order before
// every number, then ascending. Select and the Window's sorted companion
// share it so in-place and sort-based quantiles agree exactly.
func floatLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// searchFirstGE returns the smallest index i with s[i] not less than x
// under floatLess — the insertion point keeping s sorted.
func searchFirstGE(s []float64, x float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if floatLess(s[mid], x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Select partially reorders xs in place so that xs[k] holds the k-th
// order statistic (0-based, NaNs ordered first as in sort.Float64s),
// everything before index k is not greater and everything after is not
// smaller, and returns xs[k]. Quickselect with a median-of-three pivot:
// expected O(n), no allocation. It panics when k is out of range.
func Select(xs []float64, k int) float64 {
	if k < 0 || k >= len(xs) {
		panic("stats: Select index out of range")
	}
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if floatLess(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if floatLess(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if floatLess(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for floatLess(xs[i], pivot) {
				i++
			}
			for floatLess(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[lo]
}

// QuantileInPlace returns the q-quantile of xs with the same
// interpolation as Quantile, but via quickselect on the caller's slice:
// no copy, no sort, no allocation. xs is partially reordered. Callers
// that need xs in its original order afterwards must copy first (that is
// what Quantile does); one-shot summary paths should prefer this.
func QuantileInPlace(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	a := Select(xs, lo)
	if lo == hi {
		return a
	}
	// hi == lo+1: after Select the suffix holds every element ranked
	// above lo, so the (lo+1)-th order statistic is its minimum.
	b := xs[lo+1]
	for _, v := range xs[lo+2:] {
		if floatLess(v, b) {
			b = v
		}
	}
	frac := pos - float64(lo)
	return a*(1-frac) + b*frac
}

// MedianInPlace returns the median of xs via QuantileInPlace, partially
// reordering xs.
func MedianInPlace(xs []float64) float64 { return QuantileInPlace(xs, 0.5) }

// QuantileSorted returns the q-quantile of an already ascending-sorted
// slice in O(1), without copying. Callers that sort once and read several
// quantiles should prefer this over repeated Quantile calls.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	return quantileSorted(sorted, q)
}

// MedianBand holds the few order statistics an exclude-one median
// reads. With n values and lo = ⌊(n−2)/2⌋, the median of the n−1 values
// left after removing one reads ranks lo, lo+1 and lo+2 of the sorted
// values, and whether a rank lies past the removed value depends only on
// the value at that rank; the maximum decides whether any value is
// removed at all. Ranks are under floatLess (NaNs first, the
// sort.Float64s order). The peer-comparison detector fills one band per
// sweep and reads an exclude-one fleet median per member off it, which
// is what makes million-member sweeps feasible.
type MedianBand struct {
	n    int
	rank [3]float64 // ranks lo, lo+1 and lo+2, those below n
	max  float64
}

// Fill draws the band from xs, partially reordering it: one Select for
// rank lo, then one scan of the suffix above it for the next two ranks
// and the maximum. Expected O(n), no allocation.
func (b *MedianBand) Fill(xs []float64) {
	b.n = len(xs)
	if b.n < 2 {
		return // no value is left to take a median of after a removal
	}
	lo := (b.n - 2) / 2
	b.rank[0] = Select(xs, lo)
	// After Select the suffix holds every value ranked above lo, and it
	// is never empty: lo ≤ n−2.
	suffix := xs[lo+1:]
	r1, r2, mx := suffix[0], suffix[0], suffix[0]
	for i, v := range suffix[1:] {
		switch {
		case floatLess(v, r1):
			r1, r2 = v, r1
		case i == 0 || floatLess(v, r2):
			r2 = v
		}
		if floatLess(mx, v) {
			mx = v
		}
	}
	b.rank[1], b.rank[2], b.max = r1, r2, mx
}

// MedianExcluding returns the median of the filled values with one
// removed: the first not less than x under floatLess, which is x's first
// occurrence when x is present. It has the bits of copying the sorted
// values minus that one and calling QuantileSorted(copy, 0.5), in O(1).
// NaN when no value is removed (x above every value) or none would
// remain.
func (b *MedianBand) MedianExcluding(x float64) float64 {
	if b.n < 2 || floatLess(b.max, x) {
		return math.NaN()
	}
	// at reads rank lo+i of the n−1 values left: the removed value lies
	// at or before rank lo+i exactly when that rank is not less than x.
	at := func(i int) float64 {
		if !floatLess(b.rank[i], x) {
			i++
		}
		return b.rank[i]
	}
	if b.n%2 == 0 {
		return at(0) // n−1 values left, an odd count: one middle rank
	}
	return at(0)*0.5 + at(1)*0.5
}
