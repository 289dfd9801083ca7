package sim

import "math"

// RNG is a small, fast, deterministic random-number generator
// (xoshiro256** seeded via splitmix64). Every stochastic component in the
// simulator draws from its own RNG stream, forked by name from a root seed,
// so adding a component never perturbs the random sequence seen by others.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given value. Any seed,
// including zero, yields a well-mixed state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed sets the state to the splitmix64 expansion of x.
func (r *RNG) seed(x uint64) {
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Fork derives an independent stream identified by label. Forking is
// deterministic: the same parent seed and label always produce the same
// child stream. The child's seed is the 64-bit FNV-1a hash of the parent
// state (each word little-endian) followed by the label, computed without
// a hash.Hash, so a fork allocates nothing but the child.
func (r *RNG) Fork(label string) *RNG {
	c := &RNG{}
	c.forkFrom(r, label)
	return c
}

// FNV-1a's 64-bit offset basis and prime.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// forkFrom seeds c with the FNV-1a hash of the parent state, then label.
// Mixing in the parent state makes sibling forks of distinct parents
// differ. It is kept out of line so that Fork itself inlines, which lets
// a child that does not outlive its caller live on the caller's stack.
//
//go:noinline
func (c *RNG) forkFrom(parent *RNG, label string) {
	h := uint64(fnvOffset64)
	for _, w := range parent.s {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(w >> (8 * i)))
			h *= fnvPrime64
		}
	}
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime64
	}
	c.seed(h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
// It panics if mean is not positive.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("sim: Exp with non-positive mean")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, as in the standard library.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
