package core

import (
	"math"
	"math/rand"
	"testing"

	"crowdfusion/internal/dist"
	"crowdfusion/internal/info"
)

// TestInformationIdentity verifies the central identity that justifies the
// selection objective:
//
//	E[H(F | Ans_T)] = H(F) - H(T) + |T|·H(Crowd)
//
// on random sparse joints, connecting three independently implemented
// code paths (conditioning, task entropy, expected posterior entropy).
func TestInformationIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(5)
		j := randomJoint(rng, n, 1+rng.Intn(12))
		k := 1 + rng.Intn(3)
		tasks := rng.Perm(n)[:k]
		pc := 0.5 + rng.Float64()*0.5

		lhs, err := ExpectedPosteriorEntropy(j, tasks, pc)
		if err != nil {
			t.Fatal(err)
		}
		ht, err := TaskEntropy(j, tasks, pc)
		if err != nil {
			t.Fatal(err)
		}
		rhs := j.Entropy() - ht + float64(k)*info.Binary(pc)
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Fatalf("identity violated: E[H(F|Ans)]=%v, H(F)-H(T)+kH(crowd)=%v (n=%d k=%d pc=%v)",
				lhs, rhs, n, k, pc)
		}
	}
}

// TestExpectedPosteriorMatchesDirectEnumeration cross-checks against a
// brute-force computation through Joint.Condition.
func TestExpectedPosteriorMatchesDirectEnumeration(t *testing.T) {
	j := paperJoint(t)
	tasks := []int{0, 2}
	pc := 0.8
	got, err := ExpectedPosteriorEntropy(j, tasks, pc)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for bitsPat := 0; bitsPat < 4; bitsPat++ {
		answers := []bool{bitsPat&1 != 0, bitsPat&2 != 0}
		pAns, err := j.AnswerSetProb(tasks, answers, pc)
		if err != nil {
			t.Fatal(err)
		}
		post, err := j.Condition(tasks, answers, pc)
		if err != nil {
			t.Fatal(err)
		}
		want += pAns * post.Entropy()
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("expected posterior entropy %v != brute force %v", got, want)
	}
}

func TestInformationGainProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 80; trial++ {
		n := 3 + rng.Intn(4)
		j := randomJoint(rng, n, 1+rng.Intn(10))
		k := 1 + rng.Intn(2)
		tasks := rng.Perm(n)[:k]
		pc := 0.5 + rng.Float64()*0.5
		g, err := InformationGain(j, tasks, pc)
		if err != nil {
			t.Fatal(err)
		}
		// Information never hurts.
		if g < 0 {
			t.Fatalf("negative information gain %v", g)
		}
		// And is bounded by the prior entropy.
		if g > j.Entropy()+1e-9 {
			t.Fatalf("gain %v exceeds prior entropy %v", g, j.Entropy())
		}
	}
}

func TestInformationGainZeroForCertainFacts(t *testing.T) {
	// A deterministic joint: answers carry no information about F.
	j := mustJoint(t, 3, []uint64{0b101}, []float64{1})
	g, err := InformationGain(j, []int{0, 1}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g) > 1e-12 {
		t.Errorf("gain %v for a certain distribution, want 0", g)
	}
	// Pc = 0.5 answers are pure noise: zero gain on any joint.
	g, err = InformationGain(paperJoint(t), []int{0, 1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g) > 1e-9 {
		t.Errorf("gain %v at Pc=0.5, want 0", g)
	}
}

func TestExpectedPosteriorEdgeCases(t *testing.T) {
	j := paperJoint(t)
	// Empty task set: the posterior is the prior.
	h, err := ExpectedPosteriorEntropy(j, nil, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-j.Entropy()) > 1e-12 {
		t.Errorf("E[H] with no tasks = %v, want prior %v", h, j.Entropy())
	}
	// Validation propagates.
	if _, err := ExpectedPosteriorEntropy(j, []int{9}, 0.8); err == nil {
		t.Error("out-of-range task accepted")
	}
	if _, err := InformationGain(j, []int{0}, 0.1); err == nil {
		t.Error("bad accuracy accepted")
	}
	// Perfect crowd on an uncertain fact: expected posterior entropy
	// drops by exactly the fact entropy... at least by H(marginal).
	g, err := InformationGain(j, []int{0}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := j.FactEntropy([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-fh) > 1e-9 {
		t.Errorf("perfect-crowd gain %v != fact entropy %v", g, fh)
	}
}

func mustJoint(t *testing.T, n int, worlds []uint64, probs []float64) *dist.Joint {
	t.Helper()
	ws := make([]dist.World, len(worlds))
	for i, w := range worlds {
		ws[i] = dist.World(w)
	}
	j, err := dist.New(n, ws, probs)
	if err != nil {
		t.Fatal(err)
	}
	return j
}
