// Package rng provides a small deterministic pseudo-random number generator
// and the distributions the workload generators need. The simulator must be
// bit-for-bit reproducible for a given seed, independent of Go version and
// platform, so it does not use math/rand.
//
// The core generator is splitmix64 feeding xoshiro256**, the standard,
// well-tested combination.
package rng

import "math"

// Source is a deterministic 64-bit PRNG.
type Source struct {
	s [4]uint64
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed via splitmix64 (so nearby seeds
// still give unrelated streams).
func New(seed uint64) *Source {
	var r Source
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Split derives a new independent Source from this one; use it to give each
// processor / generator its own stream.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
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

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n(0)")
	}
	// Lemire's multiply-shift rejection method.
	hi, lo := mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = mul64(r.Uint64(), n)
		}
	}
	return hi
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Intn returns a uniform int in [0, n).
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean `mean`
// (number of failures before success, >= 0). Used for instruction gaps and
// run lengths. Callers that sample one mean repeatedly should precompute
// GeometricDenom(mean) and call GeometricWith.
func (r *Source) Geometric(mean float64) uint64 {
	return r.GeometricWith(GeometricDenom(mean))
}

// GeometricDenom returns the per-mean term of Geometric's inverse CDF,
// log1p(-p) with p = 1/(mean+1), or 0 for a non-positive mean. mean must
// be finite.
func GeometricDenom(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return math.Log1p(-1.0 / (mean + 1.0))
}

// GeometricWith is Geometric with its per-mean term precomputed by
// GeometricDenom; it returns bit-identical samples. A zero denominator
// (non-positive mean) yields 0 without consuming randomness.
func (r *Source) GeometricWith(denom float64) uint64 {
	if denom == 0 {
		return 0
	}
	u := r.Float64()
	// Inverse CDF; clamp to avoid log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	g := math.Floor(math.Log1p(-u) / denom)
	if g < 0 {
		return 0
	}
	if g > 1e9 {
		g = 1e9
	}
	return uint64(g)
}

// Zipf samples values in [0, n) with a Zipfian distribution of exponent s
// (s > 0; s near 1 gives classic web-like skew). Implemented by inverting an
// approximate CDF; exactness does not matter for workload shaping, but
// determinism does.
type Zipf struct {
	n    uint64
	s    float64
	hInt float64 // integral normaliser
}

// NewZipf builds a Zipf sampler over [0, n).
func NewZipf(n uint64, s float64) *Zipf {
	if n == 0 {
		n = 1
	}
	if s <= 0 {
		s = 0.8
	}
	z := &Zipf{n: n, s: s}
	z.hInt = z.hIntegral(float64(n) + 0.5)
	return z
}

// hIntegral is the integral of 1/x^s from 0.5 to x (shifted harmonic
// approximation; the constant offset cancels in the inversion).
func (z *Zipf) hIntegral(x float64) float64 {
	if z.s == 1 {
		return math.Log(x / 0.5)
	}
	return (math.Pow(x, 1-z.s) - math.Pow(0.5, 1-z.s)) / (1 - z.s)
}

func (z *Zipf) hInverse(y float64) float64 {
	if z.s == 1 {
		return 0.5 * math.Exp(y)
	}
	return math.Pow(y*(1-z.s)+math.Pow(0.5, 1-z.s), 1/(1-z.s))
}

// N returns the sampler's domain size.
func (z *Zipf) N() uint64 { return z.n }

// Sample draws one Zipf value using r.
func (z *Zipf) Sample(r *Source) uint64 {
	u := r.Float64() * z.hInt
	x := z.hInverse(u)
	k := uint64(x + 0.5)
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// Perm fills a deterministic pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
