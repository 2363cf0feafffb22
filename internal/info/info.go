// Package info implements the information-theoretic kernel used throughout
// CrowdFusion: Shannon entropy and binary entropy over discrete
// distributions, plus numerically careful accumulation helpers.
//
// All entropies are measured in bits (log base 2), matching the numbers
// reported in the CrowdFusion paper (Tables III and IV and the utility plots
// of Section V).
//
// PLogP, which every -Σ p·log2 p sum here and in internal/dist goes
// through, takes log2 from a private log2 that returns math.Log2's bits. On amd64, math.Log2 costs a Frexp, a call
// into the assembly math.Log and a second Frexp inside it, which made it
// the largest single cost of a Bayesian update. log2_amd64.go reads the
// exponent and fraction off the float's bits once and runs the assembly's
// polynomial inline, in the same operation order and with no fused
// multiply-adds, so each result is bit-identical to math.Log2: posteriors,
// selections and journals do not change with it. Zero, subnormal,
// infinite and NaN inputs, and every other GOARCH, use math.Log2 itself.
// TestPLogPMatchesLog2 and FuzzPLogP hold the two to the same bits.
package info

import (
	"errors"
	"math"
)

// ErrNotNormalized is returned by validation helpers when a probability
// vector does not sum to 1 within tolerance.
var ErrNotNormalized = errors.New("info: distribution does not sum to 1")

// ErrNegativeProb is returned when a probability entry is negative beyond
// tolerance.
var ErrNegativeProb = errors.New("info: negative probability")

// NormTolerance is the tolerance used by Validate when checking that a
// distribution sums to one. Distributions assembled from many floating-point
// updates accumulate error, so the tolerance is deliberately loose.
const NormTolerance = 1e-6

// PLogP returns p*log2(p) with the information-theoretic convention
// 0*log(0) = 0. Negative inputs (which can arise from floating-point
// cancellation) are clamped to zero. The result is bit-identical to
// p * math.Log2(p) on every architecture.
func PLogP(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return p * log2(p)
}

// Entropy returns the Shannon entropy, in bits, of the probability vector p.
// The vector is assumed to be normalized; callers that cannot guarantee this
// should call Validate first or use EntropyNormalized.
//
// Kahan compensated summation is used so that supports with many small
// entries (e.g. 2^n possible worlds) do not lose precision.
func Entropy(p []float64) float64 {
	var sum, comp float64
	for _, pi := range p {
		term := -PLogP(pi)
		y := term - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	if sum < 0 {
		// Tiny negative values can arise when all mass is on one outcome.
		return 0
	}
	return sum
}

// EntropyNormalized normalizes p (treating it as an unnormalized measure)
// and returns the entropy of the normalized distribution. The input slice is
// not modified. It returns 0 for an empty or all-zero measure.
func EntropyNormalized(p []float64) float64 {
	total := Sum(p)
	if total <= 0 {
		return 0
	}
	// H(p/Z) = -sum (p_i/Z) log(p_i/Z) = log Z - (1/Z) sum p_i log p_i.
	var s, comp float64
	for _, pi := range p {
		term := PLogP(pi)
		y := term - comp
		t := s + y
		comp = (t - s) - y
		s = t
	}
	h := math.Log2(total) - s/total
	if h < 0 {
		return 0
	}
	return h
}

// Binary returns the binary entropy function Hb(p) in bits: the entropy of a
// Bernoulli(p) random variable. It is symmetric around p = 0.5, where it
// attains its maximum of 1 bit.
func Binary(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// Sum returns the compensated (Kahan) sum of xs.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Validate checks that p is a probability distribution: entries are
// non-negative (within tolerance) and sum to 1 within NormTolerance.
func Validate(p []float64) error {
	for _, pi := range p {
		if pi < -NormTolerance {
			return ErrNegativeProb
		}
	}
	if math.Abs(Sum(p)-1) > NormTolerance*float64(max(1, len(p))) {
		return ErrNotNormalized
	}
	return nil
}

// Normalize scales p in place so it sums to 1 and returns the original sum.
// If the sum is zero or negative the slice is left unchanged and 0 is
// returned. Small negative entries (floating-point dust) are clamped to 0
// before normalizing.
func Normalize(p []float64) float64 {
	for i, pi := range p {
		if pi < 0 {
			p[i] = 0
		}
	}
	total := Sum(p)
	if total <= 0 {
		return 0
	}
	inv := 1 / total
	for i := range p {
		p[i] *= inv
	}
	return total
}
