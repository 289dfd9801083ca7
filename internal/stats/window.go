package stats

// Window is a fixed-capacity sliding window over the most recent
// observations, backed by a ring buffer. Detectors use it to compare a
// component's recent behaviour against its performance specification.
//
// Median and Quantile read a sorted companion of the ring, maintained on
// insert/evict with a binary search plus a bounded memmove, so the
// steady-state observe and quantile path never copies, sorts or
// allocates. The companion keeps the same total order as sort.Float64s
// (NaNs first, then ascending), so quantiles are identical to sorting
// Values().
type Window struct {
	buf    []float64 // ring, arrival order
	sorted []float64 // same multiset, ascending; first n entries live
	head   int
	n      int
}

// NewWindow returns a window holding up to capacity observations. It
// panics on a non-positive capacity.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic("stats: window capacity must be positive")
	}
	return &Window{
		buf:    make([]float64, capacity),
		sorted: make([]float64, capacity),
	}
}

// Observe appends x, evicting the oldest observation when full.
func (w *Window) Observe(x float64) {
	if w.n == len(w.buf) {
		w.removeSorted(w.buf[w.head])
		w.n--
	}
	w.buf[w.head] = x
	w.head = (w.head + 1) % len(w.buf)
	w.insertSorted(x)
	w.n++
}

// insertSorted places x into the sorted companion (w.n live entries).
func (w *Window) insertSorted(x float64) {
	idx := searchFirstGE(w.sorted[:w.n], x)
	copy(w.sorted[idx+1:w.n+1], w.sorted[idx:w.n])
	w.sorted[idx] = x
}

// removeSorted drops one occurrence of x from the sorted companion.
func (w *Window) removeSorted(x float64) {
	idx := searchFirstGE(w.sorted[:w.n], x)
	copy(w.sorted[idx:w.n-1], w.sorted[idx+1:w.n])
}

// Len returns the number of stored observations.
func (w *Window) Len() int { return w.n }

// Full reports whether the window has reached capacity.
func (w *Window) Full() bool { return w.n == len(w.buf) }

// At returns the i-th oldest stored observation, 0 <= i < Len().
func (w *Window) At(i int) float64 {
	if i < 0 || i >= w.n {
		panic("stats: window index out of range")
	}
	start := w.head - w.n
	if start < 0 {
		start += len(w.buf)
	}
	return w.buf[(start+i)%len(w.buf)]
}

// Values returns the stored observations, oldest first, as a fresh slice.
func (w *Window) Values() []float64 {
	vs := make([]float64, w.n)
	for i := range vs {
		vs[i] = w.At(i)
	}
	return vs
}

// Quantile returns the q-quantile of the stored observations in O(1)
// from the sorted companion, without copying or sorting.
func (w *Window) Quantile(q float64) float64 { return QuantileSorted(w.sorted[:w.n], q) }

// Median returns the 0.5-quantile of the stored observations.
func (w *Window) Median() float64 { return w.Quantile(0.5) }
