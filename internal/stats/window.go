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
//
// Ring and companion share one buffer, so a window is 32 bytes plus its
// 2·capacity floats, and a fleet of windows can be cut from one slab
// (Init).
type Window struct {
	// buf is the ring, in arrival order, in its first half, and the
	// sorted companion (the same multiset, ascending; first n entries
	// live) in its second.
	buf  []float64
	head int32
	n    int32
}

// NewWindow returns a window holding up to capacity observations. It
// panics on a non-positive capacity.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic("stats: window capacity must be positive")
	}
	w := &Window{}
	w.Init(make([]float64, 2*capacity))
	return w
}

// Init sets w up in place as an empty window over buf, which it owns from
// then on: the first half of buf is the ring and the second half the
// sorted companion, so the capacity is len(buf)/2. Callers that keep many
// windows cut their buffers from one slab. It panics unless len(buf) is
// even and positive.
func (w *Window) Init(buf []float64) {
	if len(buf) == 0 || len(buf)%2 != 0 {
		panic("stats: window buffer length must be even and positive")
	}
	*w = Window{buf: buf}
}

// halves returns the ring and the sorted companion.
func (w *Window) halves() (ring, sorted []float64) {
	c := len(w.buf) >> 1
	return w.buf[:c:c], w.buf[c:]
}

// Observe appends x, evicting the oldest observation when full.
func (w *Window) Observe(x float64) {
	ring, sorted := w.halves()
	head, n := int(w.head), int(w.n)
	if n == len(ring) {
		removeSorted(sorted[:n], ring[head])
		n--
	}
	ring[head] = x
	if head++; head == len(ring) {
		head = 0
	}
	insertSorted(sorted[:n+1], x)
	w.head, w.n = int32(head), int32(n+1)
}

// insertSorted places x into s, whose first len(s)-1 entries are live and
// sorted.
func insertSorted(s []float64, x float64) {
	n := len(s) - 1
	idx := searchFirstGE(s[:n], x)
	copy(s[idx+1:], s[idx:n])
	s[idx] = x
}

// removeSorted drops one occurrence of x from the sorted s.
func removeSorted(s []float64, x float64) {
	idx := searchFirstGE(s, x)
	copy(s[idx:], s[idx+1:])
}

// Len returns the number of stored observations.
func (w *Window) Len() int { return int(w.n) }

// Full reports whether the window has reached capacity.
func (w *Window) Full() bool { return int(w.n) == len(w.buf)>>1 }

// At returns the i-th oldest stored observation, 0 <= i < Len().
func (w *Window) At(i int) float64 {
	if i < 0 || i >= int(w.n) {
		panic("stats: window index out of range")
	}
	ring, _ := w.halves()
	start := int(w.head) - int(w.n)
	if start < 0 {
		start += len(ring)
	}
	return ring[(start+i)%len(ring)]
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
func (w *Window) Quantile(q float64) float64 {
	_, sorted := w.halves()
	return QuantileSorted(sorted[:w.n], q)
}

// Median returns the 0.5-quantile of the stored observations.
func (w *Window) Median() float64 { return w.Quantile(0.5) }
