package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Error("split children start identically")
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(3)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("bucket %d has fraction %.3f, want ~0.10", i, frac)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFraction(t *testing.T) {
	r := New(13)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("Bool(0.3) fraction = %.3f", frac)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(17)
	const draws = 200000
	var sum uint64
	for i := 0; i < draws; i++ {
		sum += r.Geometric(8)
	}
	m := float64(sum) / draws
	if m < 7.5 || m > 8.5 {
		t.Errorf("Geometric(8) mean = %.2f", m)
	}
	if r.Geometric(0) != 0 {
		t.Error("Geometric(0) should be 0")
	}
	if r.Geometric(-1) != 0 {
		t.Error("Geometric(-1) should be 0")
	}
}

// geometricReference is the direct per-sample formula, which computes
// log1p(-p) on every call; the precomputed-denominator path must match it
// bit for bit.
func geometricReference(r *Source, mean float64) uint64 {
	if mean <= 0 {
		return 0
	}
	p := 1.0 / (mean + 1.0)
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	g := math.Floor(math.Log1p(-u) / math.Log1p(-p))
	if g < 0 {
		return 0
	}
	if g > 1e9 {
		g = 1e9
	}
	return uint64(g)
}

func TestGeometricMatchesReferenceFormula(t *testing.T) {
	means := []float64{-1, 0, 1e-9, 0.25, 0.5, 1, 2, 3.7, 8, 12, 25, 100, 1e6, 1e12}
	for _, seed := range []uint64{1, 2, 7, 42, 1 << 40} {
		for _, mean := range means {
			want, got, gotWith := New(seed), New(seed), New(seed)
			denom := GeometricDenom(mean)
			for i := 0; i < 2000; i++ {
				w := geometricReference(want, mean)
				if g := got.Geometric(mean); g != w {
					t.Fatalf("seed %d mean %v draw %d: Geometric = %d, reference %d", seed, mean, i, g, w)
				}
				if g := gotWith.GeometricWith(denom); g != w {
					t.Fatalf("seed %d mean %v draw %d: GeometricWith = %d, reference %d", seed, mean, i, g, w)
				}
			}
			// The streams must stay aligned: the same randomness consumed.
			if w := want.Uint64(); w != got.Uint64() || w != gotWith.Uint64() {
				t.Fatalf("seed %d mean %v: random stream diverged from the reference", seed, mean)
			}
		}
	}
}

func TestZipfBoundsAndSkew(t *testing.T) {
	r := New(23)
	z := NewZipf(1000, 0.9)
	if z.N() != 1000 {
		t.Fatalf("N = %d", z.N())
	}
	var lowHalf, total int
	for i := 0; i < 50000; i++ {
		v := z.Sample(r)
		if v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		if v < 500 {
			lowHalf++
		}
		total++
	}
	// Skewed: the lower half must receive well over half the mass.
	if frac := float64(lowHalf) / float64(total); frac < 0.6 {
		t.Errorf("Zipf low-half fraction = %.3f, want > 0.6", frac)
	}
}

func TestZipfDegenerate(t *testing.T) {
	r := New(29)
	z := NewZipf(0, 0) // coerced to n=1, default skew
	for i := 0; i < 100; i++ {
		if z.Sample(r) != 0 {
			t.Fatal("single-element Zipf must return 0")
		}
	}
}

func TestPerm(t *testing.T) {
	r := New(31)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestMul64(t *testing.T) {
	hi, lo := mul64(^uint64(0), ^uint64(0))
	// (2^64-1)^2 = 2^128 - 2^65 + 1.
	if hi != ^uint64(0)-1 || lo != 1 {
		t.Errorf("mul64 max = (%x, %x)", hi, lo)
	}
	hi, lo = mul64(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Errorf("mul64(2^32,2^32) = (%x,%x)", hi, lo)
	}
}
