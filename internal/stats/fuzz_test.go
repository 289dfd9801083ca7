package stats

import (
	"encoding/binary"
	"math"
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
