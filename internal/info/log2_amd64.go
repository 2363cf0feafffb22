//go:build amd64

package info

import "math"

// The constants of math.Log's amd64 assembly (math/log_amd64.s), written
// as the same decimal literals so they round to the same float64s.
const (
	hSqrt2 = 7.07106781186547524401e-01 // sqrt(2)/2
	ln2Hi  = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
	ln2Lo  = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
	lg1    = 6.666666666666735130e-01   // 0x3FE5555555555593
	lg2    = 3.999999999940941908e-01   // 0x3FD999999997FA04
	lg3    = 2.857142874366239149e-01   // 0x3FD2492494229359
	lg4    = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
	lg5    = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
	lg6    = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
	lg7    = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
)

const (
	fracMask  = 1<<52 - 1
	minNormal = 0x0010000000000000 // bits of the smallest positive normal
	maxNormal = 0x7FEFFFFFFFFFFFFF // bits of the largest finite float
	halfExp   = 0x3FE << 52        // biased exponent of [0.5, 1)
)

// log2 returns math.Log2(x) bit for bit. On amd64, math.Log2 splits x
// with Frexp, calls the assembly math.Log on the fraction (which splits it
// again) and scales the result; here the split is read off the float's
// bits once and the assembly's polynomial runs inline, in its operation
// order. Every product is wrapped in float64(…), which forbids fusing it
// into a multiply-add, because the assembly rounds each MULSD on its own.
// The assembly halves the reduction at f1 <= sqrt(2)/2 (CMPSD predicate
// 5, not-less-than), unlike the pure-Go math.Log's f1 < sqrt(2)/2; the
// comparison below is on the bits, so it needs no branch. Zero,
// subnormal, negative, infinite and NaN inputs go to math.Log2.
func log2(x float64) float64 {
	b := math.Float64bits(x)
	if b-minNormal > maxNormal-minNormal {
		return math.Log2(x)
	}
	exp := int(b>>52) - 1022
	if b&fracMask == 0 {
		// Frexp's fraction is exactly 0.5: math.Log2 returns exp-1.
		return float64(exp - 1)
	}
	fb := b&fracMask | halfExp
	// c = 1 when the fraction f1 is at most sqrt(2)/2: then k = -1 and
	// f1 doubles, which for f1 in [0.5, 1) is one more in the exponent.
	c := 1 - (math.Float64bits(hSqrt2)-fb)>>63
	k := float64(-int64(c))
	f := math.Float64frombits(fb+c<<52) - 1
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (lg1 + float64(s4*(lg3+float64(s4*(lg5+float64(s4*lg7)))))))
	t2 := float64(s4 * (lg2 + float64(s4*(lg4+float64(s4*lg6)))))
	r := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	ln := float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
	return float64(ln*(1/math.Ln2)) + float64(exp)
}
