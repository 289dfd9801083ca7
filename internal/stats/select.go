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

// QuantileSortedExcluding returns the q-quantile of the sorted slice with
// one element removed: the first not less than x under the sort.Float64s
// order (NaNs first), which is x's first occurrence when x is present. It
// equals copying the slice minus that element and calling QuantileSorted —
// but in O(1), with no copy and no search: an index i lies at or past the
// removed element exactly when sorted[i] is not less than x. NaN when no
// element is removed (x above every element) or none would remain. The
// peer-comparison detector reads an exclude-one fleet median per member
// this way, which is what makes million-member sweeps feasible.
func QuantileSortedExcluding(sorted []float64, x, q float64) float64 {
	n := len(sorted)
	if n <= 1 || floatLess(sorted[n-1], x) || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	// at indexes the virtual n-1 element slice with the element removed.
	at := func(i int) float64 {
		if !floatLess(sorted[i], x) {
			i++
		}
		return sorted[i]
	}
	m := n - 1
	if m == 1 {
		return at(0)
	}
	pos := q * float64(m-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return at(lo)
	}
	frac := pos - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}
