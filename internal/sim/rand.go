package sim

import "math"

// Rand is a small, fast, deterministic PRNG (splitmix64 core with an
// xorshift finalizer). It intentionally avoids math/rand so that the
// simulation's determinism does not depend on Go release behaviour.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1). The compiler turns the
// division into a product; the outer conversion rounds it, so a
// caller's add or subtract cannot fuse with it once inlined.
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / float64(1<<53))
}

// ExpFloat64 returns an exponentially distributed value with mean 1.
// Used for Poisson inter-arrival times in workload generators.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal (mean 0, stddev 1) value via the
// Box-Muller transform. Unlike math/rand it draws two uniforms and
// discards the second variate: a cached spare would make the stream
// depend on call parity, which breaks Fork-based stream isolation.
func (r *Rand) NormFloat64() float64 {
	for {
		u := r.Float64()
		v := r.Float64()
		if u > 0 {
			return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Fork derives an independent generator from r's stream, so components can
// own private RNGs without perturbing each other's sequences.
func (r *Rand) Fork() *Rand { return NewRand(r.Uint64()) }
