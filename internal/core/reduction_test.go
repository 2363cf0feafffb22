package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crowdfusion/internal/dist"
)

// This file implements the Theorem 1 reduction from PARTITION to the
// decision version of task selection (DTaskSelect), as a runnable artifact:
// the construction in the paper's proof, a DTaskSelect decision procedure,
// and a PARTITION extractor, so the equivalence can be tested in both
// directions.
//
// Construction: given s positive numbers c_1..c_s with total Sum, build an
// instance with n = 2^s facts and s support outputs. Output o_i (one per
// number) has probability x_i = c_i / Sum, and judges fact f_I true exactly
// when bit i of I is set. The judgments of fact f_I across the outputs thus
// spell out the binary representation of I, enumerating every subset of the
// numbers. With k = 1 and Pc = 1, H(T) for T = {f_I} is the binary entropy
// of P(f_I) = sum of x_i over the subset, which reaches the target H_t = 1
// exactly when the subset sums to Sum/2 — i.e. when a partition exists.

// MaxPartitionItems bounds the PARTITION instance size: the reduction
// creates 2^s facts and worlds are 64-bit masks, so s <= 6.
const MaxPartitionItems = 6

// ErrPartitionSize is returned when the instance exceeds MaxPartitionItems.
var ErrPartitionSize = errors.New("core: partition instance too large (limit 6 numbers)")

// ReducePartition builds the DTaskSelect joint distribution for a PARTITION
// instance. The returned distribution has 2^s facts and at most s support
// worlds.
func ReducePartition(c []uint64) (*dist.Joint, error) {
	s := len(c)
	if s == 0 {
		return nil, errors.New("core: empty partition instance")
	}
	if s > MaxPartitionItems {
		return nil, ErrPartitionSize
	}
	var sum uint64
	for i, ci := range c {
		if ci == 0 {
			return nil, fmt.Errorf("core: partition numbers must be positive (c[%d] = 0)", i)
		}
		sum += ci
	}
	n := 1 << uint(s)
	worlds := make([]dist.World, s)
	probs := make([]float64, s)
	for i := 0; i < s; i++ {
		// Output i judges fact I true iff bit i of I is set.
		var w dist.World
		for fact := 0; fact < n; fact++ {
			if fact&(1<<uint(i)) != 0 {
				w = w.Set(fact, true)
			}
		}
		worlds[i] = w
		probs[i] = float64(c[i]) / float64(sum)
	}
	return dist.New(n, worlds, probs)
}

// DTaskSelect decides the paper's decision problem: is there a selection of
// k tasks with H(T) >= target? It is exact (brute force) and therefore only
// suitable for small instances — which is the point of the reduction.
func DTaskSelect(j *dist.Joint, k int, pc, target float64) (bool, []int, error) {
	best, err := (OptSelector{}).Select(j, k, pc)
	if err != nil {
		return false, nil, err
	}
	h, err := TaskEntropy(j, best, pc)
	if err != nil {
		return false, nil, err
	}
	if h >= target-1e-9 {
		return true, best, nil
	}
	return false, nil, nil
}

// HasEqualPartition answers the original PARTITION question through the
// reduction: it builds the DTaskSelect instance, asks for a single task
// reaching entropy 1 with a perfect crowd, and decodes the witness fact
// index into the two subsets.
func HasEqualPartition(c []uint64) (ok bool, subset []int, err error) {
	j, err := ReducePartition(c)
	if err != nil {
		return false, nil, err
	}
	yes, witness, err := DTaskSelect(j, 1, 1.0, 1.0)
	if err != nil {
		return false, nil, err
	}
	if !yes {
		return false, nil, nil
	}
	// Decode: bit i of the witness fact index says c_i is in the subset.
	fact := witness[0]
	for i := 0; i < len(c); i++ {
		if fact&(1<<uint(i)) != 0 {
			subset = append(subset, i)
		}
	}
	return true, subset, nil
}

// VerifyPartition checks that the indices in subset select numbers summing
// to exactly half the total — the certificate check for PARTITION.
func VerifyPartition(c []uint64, subset []int) bool {
	var total, part uint64
	for _, ci := range c {
		total += ci
	}
	if total%2 != 0 {
		return false
	}
	used := make(map[int]bool, len(subset))
	for _, i := range subset {
		if i < 0 || i >= len(c) || used[i] {
			return false
		}
		used[i] = true
		part += c[i]
	}
	return part*2 == total
}

// BruteForcePartition solves PARTITION directly by subset enumeration, as
// the independent oracle the reduction tests compare against.
func BruteForcePartition(c []uint64) (ok bool, subset []int) {
	var total uint64
	for _, ci := range c {
		total += ci
	}
	if total%2 != 0 {
		return false, nil
	}
	half := total / 2
	for mask := 0; mask < 1<<uint(len(c)); mask++ {
		var part uint64
		for i := range c {
			if mask&(1<<uint(i)) != 0 {
				part += c[i]
			}
		}
		if part == half {
			var sel []int
			for i := range c {
				if mask&(1<<uint(i)) != 0 {
					sel = append(sel, i)
				}
			}
			return true, sel
		}
	}
	return false, nil
}

// PartitionEntropy returns the single-task entropy H({f_I}) at Pc = 1 in
// the reduced instance for the subset encoded by fact index I — the binary
// entropy of the subset's probability mass. Exposed for tests that verify
// the reduction's arithmetic directly.
func PartitionEntropy(c []uint64, fact int) (float64, error) {
	s := len(c)
	if s == 0 || s > MaxPartitionItems {
		return 0, ErrPartitionSize
	}
	if fact < 0 || fact >= 1<<uint(s) {
		return 0, fmt.Errorf("core: fact %d out of range", fact)
	}
	var sum, part uint64
	for i, ci := range c {
		sum += ci
		if fact&(1<<uint(i)) != 0 {
			part += ci
		}
	}
	p := float64(part) / float64(sum)
	if p <= 0 || p >= 1 {
		return 0, nil
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p), nil
}

func TestReducePartitionValidation(t *testing.T) {
	if _, err := ReducePartition(nil); err == nil {
		t.Error("empty instance accepted")
	}
	if _, err := ReducePartition(make([]uint64, MaxPartitionItems+1)); err != ErrPartitionSize {
		t.Errorf("oversized instance err = %v", err)
	}
	if _, err := ReducePartition([]uint64{1, 0, 2}); err == nil {
		t.Error("zero element accepted")
	}
}

func TestReducePartitionStructure(t *testing.T) {
	c := []uint64{3, 1, 2}
	j, err := ReducePartition(c)
	if err != nil {
		t.Fatal(err)
	}
	// n = 2^3 = 8 facts, 3 support worlds with probabilities c_i / 6.
	if j.N() != 8 {
		t.Errorf("N = %d, want 8", j.N())
	}
	if j.SupportSize() != 3 {
		t.Errorf("support = %d, want 3", j.SupportSize())
	}
	// Fact f_I is true in world i iff bit i of I is set, so the marginal
	// of f_I is the subset sum divided by the total.
	for fact := 0; fact < 8; fact++ {
		var want float64
		for i, ci := range c {
			if fact&(1<<uint(i)) != 0 {
				want += float64(ci) / 6
			}
		}
		got, err := j.Marginal(fact)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("P(f_%d) = %v, want %v", fact, got, want)
		}
	}
}

// TestReductionYesInstances: instances with an equal partition must map to
// DTaskSelect instances reaching H = 1, and the witness must decode to a
// valid partition.
func TestReductionYesInstances(t *testing.T) {
	yes := [][]uint64{
		{1, 1},
		{3, 1, 2},
		{2, 2, 2, 2},
		{5, 3, 2, 4, 6}, // half = 10: {4,6} or {5,3,2}...
		{1, 2, 3, 4, 10},
	}
	for _, c := range yes {
		ok, subset, err := HasEqualPartition(c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if !ok {
			t.Errorf("%v: reduction says no partition, but one exists", c)
			continue
		}
		if !VerifyPartition(c, subset) {
			t.Errorf("%v: witness %v is not a valid partition", c, subset)
		}
	}
}

// TestReductionNoInstances: instances with no equal partition must come
// back negative.
func TestReductionNoInstances(t *testing.T) {
	no := [][]uint64{
		{1},
		{1, 2},
		{1, 1, 1},    // odd total
		{2, 4, 8},    // total 14, half 7 unreachable
		{1, 2, 4, 8}, // total 15, odd
		{10, 1, 2, 3},
	}
	for _, c := range no {
		ok, subset, err := HasEqualPartition(c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if ok {
			t.Errorf("%v: reduction found a 'partition' %v", c, subset)
		}
	}
}

// TestReductionMatchesBruteForce: randomized agreement between the
// reduction-based decision procedure and direct subset enumeration.
func TestReductionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 100; trial++ {
		s := 2 + rng.Intn(4)
		c := make([]uint64, s)
		for i := range c {
			c[i] = uint64(1 + rng.Intn(12))
		}
		viaReduction, _, err := HasEqualPartition(c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		viaBrute, subset := BruteForcePartition(c)
		if viaReduction != viaBrute {
			t.Fatalf("%v: reduction=%v brute=%v", c, viaReduction, viaBrute)
		}
		if viaBrute && !VerifyPartition(c, subset) {
			t.Fatalf("%v: brute force returned invalid witness %v", c, subset)
		}
	}
}

func TestPartitionEntropy(t *testing.T) {
	c := []uint64{1, 1}
	// Fact 0b01 selects {c_0}: mass 0.5 -> entropy 1.
	h, err := PartitionEntropy(c, 0b01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-1) > 1e-12 {
		t.Errorf("H = %v, want 1", h)
	}
	// Fact 0 selects nothing: entropy 0.
	h, err = PartitionEntropy(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h != 0 {
		t.Errorf("H(empty subset) = %v", h)
	}
	// And it agrees with TaskEntropy on the reduced instance at Pc = 1.
	j, err := ReducePartition([]uint64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for fact := 0; fact < 8; fact++ {
		want, err := PartitionEntropy([]uint64{3, 1, 2}, fact)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TaskEntropy(j, []int{fact}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("fact %d: TaskEntropy %v != PartitionEntropy %v", fact, got, want)
		}
	}
	if _, err := PartitionEntropy(c, 99); err == nil {
		t.Error("out-of-range fact accepted")
	}
	if _, err := PartitionEntropy(nil, 0); err == nil {
		t.Error("empty instance accepted")
	}
}

func TestVerifyPartition(t *testing.T) {
	c := []uint64{3, 1, 2}
	if !VerifyPartition(c, []int{0}) {
		t.Error("valid partition {3} vs {1,2} rejected")
	}
	if VerifyPartition(c, []int{1}) {
		t.Error("invalid partition accepted")
	}
	if VerifyPartition(c, []int{0, 0}) {
		t.Error("duplicate indices accepted")
	}
	if VerifyPartition(c, []int{5}) {
		t.Error("out-of-range index accepted")
	}
	if VerifyPartition([]uint64{1, 2}, []int{0}) {
		t.Error("odd-total instance accepted")
	}
}

func TestDTaskSelectThreshold(t *testing.T) {
	j := paperJoint(t)
	// H({f1}) = 1 at Pc = 1 since P(f1) = 0.5; target 1 is reachable.
	ok, witness, err := DTaskSelect(j, 1, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(witness) != 1 || witness[0] != 0 {
		t.Errorf("DTaskSelect = %v %v, want true [0]", ok, witness)
	}
	// An unreachable target.
	ok, _, err = DTaskSelect(j, 1, 1.0, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("DTaskSelect reached an impossible target")
	}
}
