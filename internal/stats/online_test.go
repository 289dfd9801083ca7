package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEWMAFirstObservation(t *testing.T) {
	e := NewEWMA(0.3)
	if !math.IsNaN(e.Value()) {
		t.Fatal("uninitialized EWMA not NaN")
	}
	if e.Initialized() {
		t.Fatal("Initialized before observation")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation = %v, want 10", e.Value())
	}
}

func TestEWMASmoothing(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(0)
	e.Observe(10) // 0 + 0.5*(10-0) = 5
	if e.Value() != 5 {
		t.Fatalf("EWMA = %v, want 5", e.Value())
	}
	e.Observe(10) // 5 + 0.5*5 = 7.5
	if e.Value() != 7.5 {
		t.Fatalf("EWMA = %v, want 7.5", e.Value())
	}
}

func TestEWMAConvergesToStep(t *testing.T) {
	e := NewEWMA(0.2)
	e.Observe(0)
	for i := 0; i < 200; i++ {
		e.Observe(100)
	}
	if math.Abs(e.Value()-100) > 1e-6 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestEWMAAlphaOneTracksExactly(t *testing.T) {
	e := NewEWMA(1)
	for _, v := range []float64{3, 9, -2} {
		e.Observe(v)
		if e.Value() != v {
			t.Fatalf("alpha=1 EWMA = %v, want %v", e.Value(), v)
		}
	}
}

func TestEWMAInvalidAlphaPanics(t *testing.T) {
	for _, alpha := range []float64{0, -0.1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha=%v did not panic", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
}

func TestEWMABoundedByExtremesProperty(t *testing.T) {
	f := func(raw []int16, a uint8) bool {
		if len(raw) == 0 {
			return true
		}
		alpha := (float64(a%99) + 1) / 100
		e := NewEWMA(alpha)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			x := float64(v)
			e.Observe(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return e.Value() >= lo-1e-9 && e.Value() <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
