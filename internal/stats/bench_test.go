package stats

import "testing"

func benchData(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64((i*2654435761)%1000) / 10
	}
	return xs
}

func BenchmarkQuantile1k(b *testing.B) {
	xs := benchData(1000)
	for i := 0; i < b.N; i++ {
		Quantile(xs, 0.99)
	}
}

func BenchmarkQuantileInPlace1k(b *testing.B) {
	xs := benchData(1000)
	work := make([]float64, len(xs))
	for i := 0; i < b.N; i++ {
		copy(work, xs)
		QuantileInPlace(work, 0.99)
	}
}

func BenchmarkMedianInPlace1k(b *testing.B) {
	xs := benchData(1000)
	work := make([]float64, len(xs))
	for i := 0; i < b.N; i++ {
		copy(work, xs)
		MedianInPlace(work)
	}
}

func BenchmarkWindowObserve(b *testing.B) {
	w := NewWindow(64)
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i))
	}
}

func BenchmarkWindowObserveMedian(b *testing.B) {
	w := NewWindow(64)
	for i := 0; i < 64; i++ {
		w.Observe(float64(i % 17))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i % 13))
		_ = w.Median()
		_ = w.Quantile(0.95)
	}
}

func BenchmarkEWMAObserve(b *testing.B) {
	e := NewEWMA(0.2)
	for i := 0; i < b.N; i++ {
		e.Observe(float64(i % 100))
	}
}
