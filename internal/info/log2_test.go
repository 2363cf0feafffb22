package info

import (
	"math"
	"math/rand"
	"testing"
)

// The bits of the smallest positive normal, and sqrt(2)/2, where math.Log
// on amd64 switches its argument reduction.
const (
	minNormalBits = 0x0010000000000000
	halfSqrt2     = 7.07106781186547524401e-01
)

// refPLogP is PLogP as written against the standard library.
func refPLogP(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return p * math.Log2(p)
}

// checkLog2 fails t unless log2 and PLogP reproduce math.Log2 and
// p*math.Log2(p) bit for bit at x.
func checkLog2(t testing.TB, x float64) {
	if got, want := log2(x), math.Log2(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Helper()
		t.Fatalf("log2(%v [%#x]) = %v [%#x], math.Log2 = %v [%#x]",
			x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := PLogP(x), refPLogP(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Helper()
		t.Fatalf("PLogP(%v [%#x]) = %v [%#x], want %v [%#x]",
			x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestPLogPMatchesLog2: the inline log2 is math.Log2 bit for bit — on
// random probabilities and random positive floats, at every power of two,
// across the sqrt(2)/2 reduction boundary in several binades, and on the
// inputs it hands to math.Log2.
func TestPLogPMatchesLog2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5_000_000; i++ {
		checkLog2(t, rng.Float64())
		// Any positive float: a random exponent and fraction.
		checkLog2(t, math.Float64frombits(rng.Uint64()>>1))
	}
	for e := -1074; e <= 1023; e++ {
		checkLog2(t, math.Ldexp(1, e))
	}
	for _, e := range []int{-1021, -600, -60, -2, -1, 0, 1, 2, 60, 600, 1023} {
		b := math.Float64bits(math.Ldexp(halfSqrt2, e))
		for d := uint64(0); d <= 4000; d++ {
			checkLog2(t, math.Float64frombits(b-2000+d))
		}
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 2,
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		math.Float64frombits(minNormalBits - 1), math.Float64frombits(minNormalBits),
		math.Float64frombits(minNormalBits + 1), math.Float64frombits(0x000ABCDEF0123456),
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		checkLog2(t, x)
	}
}

// FuzzPLogP: for any float, log2 and PLogP reproduce math.Log2 bit for bit.
func FuzzPLogP(f *testing.F) {
	for _, x := range []float64{0, 1, 0.5, halfSqrt2, 0.3, 1e-300, 5e-324, math.Inf(1), math.NaN()} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkLog2(t, x)
	})
}
