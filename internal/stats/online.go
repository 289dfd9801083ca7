package stats

import "math"

// EWMA is an exponentially weighted moving average. With smoothing factor
// alpha in (0, 1], each observation contributes alpha of its value; higher
// alpha reacts faster but is noisier. The first observation initializes the
// average directly.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor. It panics if
// alpha is outside (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		panic("stats: EWMA alpha must be in (0, 1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds x into the average.
func (e *EWMA) Observe(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value += e.alpha * (x - e.value)
}

// Value returns the current average, or NaN before any observation.
func (e *EWMA) Value() float64 {
	if !e.init {
		return math.NaN()
	}
	return e.value
}

// Initialized reports whether at least one observation has been folded in.
func (e *EWMA) Initialized() bool { return e.init }
