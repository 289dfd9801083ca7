package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestForkDeterministicAndIndependent(t *testing.T) {
	root1, root2 := NewRNG(7), NewRNG(7)
	a1, a2 := root1.Fork("disk-0"), root2.Fork("disk-0")
	for i := 0; i < 100; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatal("same fork label diverged")
		}
	}
	b := NewRNG(7).Fork("disk-1")
	c := NewRNG(7).Fork("disk-0")
	same := 0
	for i := 0; i < 100; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("distinct fork labels produced correlated streams")
	}
}

// TestForkGolden pins Fork's derivation: the first three draws of the
// children forked for a few (seed, label) pairs — an empty label, a short
// one, a fleet disk id and one over 64 bytes — as the original
// hash/fnv-based Fork produced them. Every stochastic component forks its
// stream by name, so a change here moves every table in the suite.
func TestForkGolden(t *testing.T) {
	const long = "a label that is well over sixty-four bytes long, to cross any block edge"
	golden := []struct {
		seed  uint64
		label string
		draws [3]uint64
	}{
		{0, "", [3]uint64{0xe0e58d270e3e40b3, 0xe7f249083a52f17, 0x35918e7725ca802e}},
		{0, "e32", [3]uint64{0xd2d02e9fcce88cd9, 0x1484c26e48eeced4, 0x590e166c8bf519f8}},
		{1, "d0000042", [3]uint64{0x2f08a095cfd221d2, 0x4653bfdf57fb0aeb, 0xfc6cf1782c24a4fc}},
		{1, long, [3]uint64{0x6a9998404a5358fc, 0x274f51196489eb8d, 0x7eab45daa9a43604}},
		{42, "", [3]uint64{0x3c0c2f21fb3b1508, 0x9aee7aa5c1904d21, 0x6c7a00adb8666cfc}},
		{42, "e32", [3]uint64{0xdc2853e39749b113, 0xacf8c77c5dce6296, 0x57b0cdeb78edd59e}},
		{42, "d0000042", [3]uint64{0xd3abba11a85e054e, 0xa527a27591bafba5, 0xee71a231e26a7e25}},
		{42, long, [3]uint64{0x20b7a71daf57a0fb, 0x6d645fa9b994cf2, 0x558421516f9015e1}},
		{1337, "e32", [3]uint64{0x197eaca14f14f2cf, 0x5b521e955aa9b0f4, 0x99de02241886121d}},
		{1337, "d0000042", [3]uint64{0x177c669a9d1d8639, 0x921c64b6c17d5bd1, 0x82cc8b59d87cad1}},
	}
	for _, g := range golden {
		c := NewRNG(g.seed).Fork(g.label)
		for i, want := range g.draws {
			if got := c.Uint64(); got != want {
				t.Errorf("NewRNG(%d).Fork(%q) draw %d = %#x, want %#x", g.seed, g.label, i, got, want)
			}
		}
	}
}

// TestForkAllocatesOnlyTheChild bounds Fork at one allocation, the child
// itself; a child that stays in its caller's frame costs none.
func TestForkAllocatesOnlyTheChild(t *testing.T) {
	root := NewRNG(42)
	var child *RNG
	if n := testing.AllocsPerRun(100, func() { child = root.Fork("d0000042") }); n > 1 {
		t.Errorf("Fork allocates %v times, want at most 1", n)
	}
	local := testing.AllocsPerRun(100, func() { _ = root.Fork("d0000042").Uint64() })
	if local != 0 {
		t.Errorf("a fork used only in its caller's frame allocates %v times, want 0", local)
	}
	_ = child
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		v := r.Exp(2.0)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-2.0) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~2.0", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(13)
	n := 100000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.1 {
		t.Fatalf("normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(5, 8)
		if v < 5 || v >= 8 {
			t.Fatalf("Uniform(5,8) = %v out of range", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	f := func(n uint8) bool {
		size := int(n%32) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := NewRNG(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d -> %d", sum, got)
	}
}
