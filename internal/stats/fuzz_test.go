package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
)

// fuzzMaxObserves bounds one FuzzWindow execution: enough to evict
// from a full 64-sample ring and to wrap smaller rings many times.
// Longer inputs reach no new path and only slow the fuzzer, which
// minimizes each new input in time quadratic in its length.
const fuzzMaxObserves = 96

// FuzzWindow decodes its input as a capacity in [1, 64] (the first byte)
// followed by raw little-endian 64-bit floats, so NaNs, ±Inf, ±0 and
// repeated values all reach Observe. After every observation it checks
// Len, Full, At and Values against a naive slice of the last capacity
// inputs, and Median and Quantile against copying that slice, sorting it
// with sort.Float64s and reading QuantileSorted. Quantiles compare by
// value with NaN equal to NaN: -0 and +0 tie under the sort order, so
// which zero a rank holds is unspecified. The seed corpus under
// testdata/fuzz/FuzzWindow replays on every go test run.
func FuzzWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		capacity := 1 + int(in[0]%64)
		in = in[1:]
		w := NewWindow(capacity)
		var all []float64
		for i := 0; len(in) >= 8 && i < fuzzMaxObserves; i++ {
			x := math.Float64frombits(binary.LittleEndian.Uint64(in))
			in = in[8:]
			w.Observe(x)
			all = append(all, x)
			tail := all[max(0, len(all)-capacity):]

			if w.Len() != len(tail) || w.Full() != (len(tail) == capacity) {
				t.Fatalf("step %d: Len %d Full %v, want %d %v", i, w.Len(), w.Full(), len(tail), len(tail) == capacity)
			}
			vs := w.Values()
			if len(vs) != len(tail) {
				t.Fatalf("step %d: Values has %d entries, want %d", i, len(vs), len(tail))
			}
			for k, want := range tail {
				// The ring stores observations verbatim, so At and Values
				// must return the very bits observed.
				if math.Float64bits(w.At(k)) != math.Float64bits(want) ||
					math.Float64bits(vs[k]) != math.Float64bits(want) {
					t.Fatalf("step %d: At(%d) = %v, Values[%d] = %v, want %v", i, k, w.At(k), k, vs[k], want)
				}
			}

			sorted := append([]float64(nil), tail...)
			sort.Float64s(sorted)
			if got, want := w.Median(), QuantileSorted(sorted, 0.5); !sameFloat(got, want) {
				t.Fatalf("step %d: Median = %v, want %v (window %v)", i, got, want, tail)
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
				if got, want := w.Quantile(q), QuantileSorted(sorted, q); !sameFloat(got, want) {
					t.Fatalf("step %d: Quantile(%v) = %v, want %v (window %v)", i, q, got, want, tail)
				}
			}
		}
	})
}

// fuzzMaxBand bounds the values one FuzzMedianBand input fills a band
// with.
const fuzzMaxBand = 64

// FuzzMedianBand decodes its input as a probe value followed by 1 to 64
// values, all raw little-endian 64-bit floats, so NaNs, ±Inf, ±0 and
// repeated values all reach the band. It fills a MedianBand from the
// values and checks the exclude-one median for every value and for the
// probe against the sort reference, refMedianExcluding. The seed corpus
// under testdata/fuzz/FuzzMedianBand replays on every go test run.
func FuzzMedianBand(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 16 {
			return
		}
		probe := math.Float64frombits(binary.LittleEndian.Uint64(in))
		var xs []float64
		for in = in[8:]; len(in) >= 8 && len(xs) < fuzzMaxBand; in = in[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(in)))
		}
		for _, x := range xs {
			bandMatchesRef(t, xs, x)
		}
		bandMatchesRef(t, xs, probe)
	})
}

// fuzzMaxQuantile bounds the values one FuzzQuantile input holds.
const fuzzMaxQuantile = 64

// FuzzQuantile decodes its input as a q followed by 1 to 64 values, all
// raw little-endian 64-bit floats, so NaNs, ±Inf, ±0 and repeated values
// reach the selection code, and q may be NaN or out of range. It checks
// Select at every rank against copying the values and sorting them with
// sort.Float64s, including that Select only permutes and partitions its
// slice, and QuantileInPlace at q and at a fixed grid against
// QuantileSorted on the sorted copy. Values compare with NaN equal to
// NaN: -0 and +0 tie under the sort order, so which zero a rank holds is
// unspecified. The seed corpus under testdata/fuzz/FuzzQuantile replays
// on every go test run.
func FuzzQuantile(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 16 {
			return
		}
		q := math.Float64frombits(binary.LittleEndian.Uint64(in))
		var xs []float64
		for in = in[8:]; len(in) >= 8 && len(xs) < fuzzMaxQuantile; in = in[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(in)))
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		bits := func(vs []float64) []uint64 {
			out := make([]uint64, len(vs))
			for i, v := range vs {
				out[i] = math.Float64bits(v)
			}
			slices.Sort(out)
			return out
		}
		perm := bits(xs)

		for k := range xs {
			sel := append([]float64(nil), xs...)
			if got := Select(sel, k); !sameFloat(got, sorted[k]) || !sameFloat(sel[k], sorted[k]) {
				t.Fatalf("Select(%v, %d) = %v with xs[k] = %v, want %v", xs, k, got, sel[k], sorted[k])
			}
			if !slices.Equal(bits(sel), perm) {
				t.Fatalf("Select(%v, %d) left %v, not a permutation", xs, k, sel)
			}
			for i, v := range sel {
				if (i < k && floatLess(sel[k], v)) || (i > k && floatLess(v, sel[k])) {
					t.Fatalf("Select(%v, %d) left %v: index %d on the wrong side of rank %d", xs, k, sel, i, k)
				}
			}
		}
		for _, p := range []float64{q, 0, 0.25, 0.5, 0.95, 1} {
			scratch := append([]float64(nil), xs...)
			if got, ref := QuantileInPlace(scratch, p), QuantileSorted(sorted, p); !sameFloat(got, ref) {
				t.Fatalf("QuantileInPlace(%v, %v) = %v, want %v", xs, p, got, ref)
			}
		}
	})
}
