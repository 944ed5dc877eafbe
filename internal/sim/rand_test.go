package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced stuck generator")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRandUniformity(t *testing.T) {
	// Coarse chi-squared-free check: each of 10 buckets gets 10% +- 2%.
	r := NewRand(99)
	const n = 100000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.02 {
			t.Errorf("bucket %d has fraction %v, want ~0.1", i, frac)
		}
	}
}

func TestRandGeometricMean(t *testing.T) {
	r := NewRand(5)
	const p = 0.25
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / n
	want := (1 - p) / p // 3.0
	if math.Abs(mean-want) > 0.15 {
		t.Errorf("geometric mean = %v, want ~%v", mean, want)
	}
}

func TestRandGeometricPOne(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 100; i++ {
		if r.Geometric(1) != 0 {
			t.Fatal("Geometric(1) must be 0")
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size%64) + 1
		r := NewRand(seed)
		dst := make([]int, n)
		r.Perm(dst)
		seen := make([]bool, n)
		for _, v := range dst {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// geometricRef is the Bernoulli loop Geometric replaced, kept as its
// oracle: one Float64 draw per trial, counting draws >= p.
func geometricRef(r *Rand, p float64) uint64 {
	if p >= 1 {
		return 0
	}
	var n uint64
	for r.Float64() >= p {
		n++
		if n > 1<<20 {
			break
		}
	}
	return n
}

// TestRandGeometricMatchesFloat64Loop checks that Geometric returns the
// same count and leaves the same generator state as the Float64 loop, over
// many p and seeds: ordinary, tiny (the loop bound), near-one, power-of-two
// and NaN probabilities, and p one ulp either side of a draw's grid.
func TestRandGeometricMatchesFloat64Loop(t *testing.T) {
	ps := []float64{
		1e-9, 1e-6, 0.001, 0.01, 0.0625, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 0.9,
		0.999999, math.Nextafter(1, 0), 0x1p-53, 3 * 0x1p-54, math.Nextafter(0.5, 0),
		math.Nextafter(0.5, 1), 5e-324, math.NaN(),
	}
	pick := NewRand(20081016)
	for i := 0; i < 200; i++ {
		ps = append(ps, pick.Float64())
	}
	for _, p := range ps {
		seeds, draws := uint64(40), 5
		if p < 1e-5 {
			seeds, draws = 3, 1 // each draw runs to the 2^20-trial bound
		}
		for seed := uint64(0); seed < seeds; seed++ {
			a, b := NewRand(seed*0x9E3779B97F4A7C15+1), NewRand(seed*0x9E3779B97F4A7C15+1)
			for draw := 0; draw < draws; draw++ {
				if got, want := a.Geometric(p), geometricRef(b, p); got != want {
					t.Fatalf("p=%v seed %d draw %d: Geometric = %d, Float64 loop = %d", p, seed, draw, got, want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("p=%v seed %d: generator state differs after the draws", p, seed)
			}
		}
	}
}
