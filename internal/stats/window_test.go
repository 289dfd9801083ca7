package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWindowFillAndEvict(t *testing.T) {
	w := NewWindow(3)
	if w.Full() || w.Len() != 0 {
		t.Fatal("fresh window state wrong")
	}
	w.Observe(1)
	w.Observe(2)
	if w.Full() {
		t.Fatal("window full too early")
	}
	w.Observe(3)
	if !w.Full() {
		t.Fatal("window not full at capacity")
	}
	w.Observe(4) // evicts 1
	vs := w.Values()
	want := []float64{2, 3, 4}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("Values = %v, want %v", vs, want)
		}
	}
}

func TestWindowMedian(t *testing.T) {
	w := NewWindow(4)
	for _, v := range []float64{1, 2, 3, 4, 5} { // window holds 2..5
		w.Observe(v)
	}
	if got := w.Median(); got != 3.5 {
		t.Fatalf("Median = %v, want 3.5", got)
	}
}

func TestWindowEmptyStats(t *testing.T) {
	w := NewWindow(4)
	if !math.IsNaN(w.Median()) || !math.IsNaN(w.Quantile(0.95)) {
		t.Fatal("empty window stats not NaN")
	}
	if len(w.Values()) != 0 {
		t.Fatal("empty window Values not empty")
	}
}

func TestWindowInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0)
}

// Property: the window always reflects exactly the last min(n, cap)
// observations, in order.
func TestWindowKeepsTailProperty(t *testing.T) {
	f := func(raw []int16, c uint8) bool {
		capacity := int(c%16) + 1
		w := NewWindow(capacity)
		all := make([]float64, 0, len(raw))
		for _, v := range raw {
			x := float64(v)
			w.Observe(x)
			all = append(all, x)
		}
		start := len(all) - capacity
		if start < 0 {
			start = 0
		}
		tail := all[start:]
		got := w.Values()
		if len(got) != len(tail) {
			return false
		}
		for i := range tail {
			if got[i] != tail[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWindowInitSlab cuts neighbouring windows from one slab and drives
// them apart: each must match a NewWindow fed the same stream (values,
// median, quantile), so no window writes past its own cut. Init rejects
// an empty or odd buffer.
func TestWindowInitSlab(t *testing.T) {
	const k, capacity = 3, 4
	slab := make([]float64, k*2*capacity)
	ws := make([]Window, k)
	refs := make([]*Window, k)
	for i := range ws {
		ws[i].Init(slab[i*2*capacity : (i+1)*2*capacity])
		refs[i] = NewWindow(capacity)
	}
	for step := 0; step < 11; step++ {
		for i := range ws {
			x := float64((step*(i+3))%7) - float64(i)
			ws[i].Observe(x)
			refs[i].Observe(x)
			if ws[i].Len() != refs[i].Len() || ws[i].Full() != refs[i].Full() ||
				ws[i].Median() != refs[i].Median() || ws[i].Quantile(0.9) != refs[i].Quantile(0.9) {
				t.Fatalf("step %d window %d: slab window (len %d, median %v) differs from NewWindow (len %d, median %v)",
					step, i, ws[i].Len(), ws[i].Median(), refs[i].Len(), refs[i].Median())
			}
			got, want := ws[i].Values(), refs[i].Values()
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("step %d window %d: Values %v, want %v", step, i, got, want)
				}
			}
		}
	}
	for _, n := range []int{0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Init over %d floats did not panic", n)
				}
			}()
			var w Window
			w.Init(make([]float64, n))
		}()
	}
}
