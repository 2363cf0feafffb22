package info

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestPLogP(t *testing.T) {
	tests := []struct {
		name string
		p    float64
		want float64
	}{
		{"zero", 0, 0},
		{"negative clamped", -0.1, 0},
		{"one", 1, 0},
		{"half", 0.5, -0.5},
		{"quarter", 0.25, -0.5},
		{"eighth", 0.125, -0.375},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := PLogP(tt.p); !almostEqual(got, tt.want, eps) {
				t.Errorf("PLogP(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestEntropyKnownValues(t *testing.T) {
	tests := []struct {
		name string
		p    []float64
		want float64
	}{
		{"empty", nil, 0},
		{"point mass", []float64{1}, 0},
		{"point mass with zeros", []float64{0, 1, 0}, 0},
		{"fair coin", []float64{0.5, 0.5}, 1},
		{"uniform 4", []float64{0.25, 0.25, 0.25, 0.25}, 2},
		{"uniform 8", []float64{.125, .125, .125, .125, .125, .125, .125, .125}, 3},
		{"biased coin 0.9", []float64{0.9, 0.1}, 0.4689955935892812},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Entropy(tt.p); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Entropy(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

// TestEntropyPaperJoint pins the entropy of the paper's Table II joint
// distribution (16 possible outputs over 4 facts).
func TestEntropyPaperJoint(t *testing.T) {
	p := []float64{0.03, 0.06, 0.07, 0.04, 0.09, 0.01, 0.11, 0.09,
		0.04, 0.04, 0.04, 0.05, 0.06, 0.09, 0.07, 0.11}
	if err := Validate(p); err != nil {
		t.Fatalf("paper joint distribution invalid: %v", err)
	}
	h := Entropy(p)
	// Independently computed: -sum p log2 p = 3.840031...
	if h < 3.5 || h > 4.0 {
		t.Errorf("entropy of paper joint = %v, want within (3.5, 4.0)", h)
	}
	if !almostEqual(h, 3.8400310143, 1e-9) {
		t.Errorf("entropy of paper joint = %v, want 3.8400310143", h)
	}
}

func TestEntropyBounds(t *testing.T) {
	// Property: 0 <= H(p) <= log2(n) for any normalized distribution.
	f := func(raw []float64) bool {
		p := makeDist(raw)
		if p == nil {
			return true
		}
		h := Entropy(p)
		return h >= 0 && h <= math.Log2(float64(len(p)))+1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestEntropyMaximizedByUniform(t *testing.T) {
	// Property: uniform distribution has maximal entropy among same-size
	// supports.
	f := func(raw []float64) bool {
		p := makeDist(raw)
		if p == nil || len(p) < 2 {
			return true
		}
		return Entropy(p) <= math.Log2(float64(len(p)))+1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestEntropyNormalized(t *testing.T) {
	// EntropyNormalized(c*p) == Entropy(p) for any positive scale c.
	p := []float64{0.1, 0.2, 0.3, 0.4}
	want := Entropy(p)
	for _, c := range []float64{0.001, 0.5, 1, 2, 1000} {
		scaled := make([]float64, len(p))
		for i := range p {
			scaled[i] = p[i] * c
		}
		if got := EntropyNormalized(scaled); !almostEqual(got, want, 1e-9) {
			t.Errorf("EntropyNormalized(scale %v) = %v, want %v", c, got, want)
		}
	}
	if got := EntropyNormalized(nil); got != 0 {
		t.Errorf("EntropyNormalized(nil) = %v, want 0", got)
	}
	if got := EntropyNormalized([]float64{0, 0}); got != 0 {
		t.Errorf("EntropyNormalized(zeros) = %v, want 0", got)
	}
}

func TestBinary(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0, 0}, {1, 0}, {0.5, 1},
		{0.8, 0.7219280948873623},
		{0.2, 0.7219280948873623},
		{0.7, 0.8812908992306927},
		{0.9, 0.4689955935892812},
	}
	for _, tt := range tests {
		if got := Binary(tt.p); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Binary(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestBinarySymmetry(t *testing.T) {
	f := func(x float64) bool {
		p := math.Mod(math.Abs(x), 1)
		return almostEqual(Binary(p), Binary(1-p), 1e-9)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestSum(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %v", got)
	}
	if got := Sum([]float64{1, 2, 3}); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
	// Kahan summation should handle catastrophic-cancellation-prone input.
	many := make([]float64, 1000000)
	for i := range many {
		many[i] = 0.1
	}
	if got := Sum(many); !almostEqual(got, 100000, 1e-6) {
		t.Errorf("Sum(1e6 * 0.1) = %v, want 100000", got)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]float64{0.5, 0.5}); err != nil {
		t.Errorf("valid distribution rejected: %v", err)
	}
	if err := Validate([]float64{0.5, 0.4}); err != ErrNotNormalized {
		t.Errorf("unnormalized distribution accepted, err=%v", err)
	}
	if err := Validate([]float64{1.5, -0.5}); err != ErrNegativeProb {
		t.Errorf("negative probability accepted, err=%v", err)
	}
}

func TestNormalize(t *testing.T) {
	p := []float64{1, 2, 1}
	total := Normalize(p)
	if total != 4 {
		t.Errorf("Normalize returned %v, want 4", total)
	}
	want := []float64{0.25, 0.5, 0.25}
	for i := range p {
		if !almostEqual(p[i], want[i], eps) {
			t.Errorf("p[%d] = %v, want %v", i, p[i], want[i])
		}
	}
	// Zero measure left unchanged.
	z := []float64{0, 0}
	if total := Normalize(z); total != 0 {
		t.Errorf("Normalize(zeros) = %v, want 0", total)
	}
	// Negative dust clamped.
	d := []float64{-1e-18, 1}
	Normalize(d)
	if d[0] != 0 {
		t.Errorf("negative dust not clamped: %v", d[0])
	}
}

func TestNormalizeThenValidate(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		p := make([]float64, len(raw))
		anyPos := false
		for i, x := range raw {
			p[i] = math.Abs(math.Mod(x, 100))
			if p[i] > 0 {
				anyPos = true
			}
		}
		if !anyPos {
			return true
		}
		Normalize(p)
		return Validate(p) == nil
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// makeDist converts arbitrary quick-generated floats into a normalized
// distribution, or nil when impossible.
func makeDist(raw []float64) []float64 {
	if len(raw) == 0 {
		return nil
	}
	p := make([]float64, len(raw))
	anyPos := false
	for i, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
		p[i] = math.Abs(math.Mod(x, 1000))
		if p[i] > 0 {
			anyPos = true
		}
	}
	if !anyPos {
		return nil
	}
	Normalize(p)
	return p
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
}
