package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bruteAnswerSetProb recomputes Equation 2 + total probability with
// per-world arithmetic, independent of the channel-weight table.
func bruteAnswerSetProb(j *Joint, tasks []int, answers []bool, pc float64) float64 {
	var sum float64
	for i, w := range j.Worlds() {
		p := j.Probs()[i]
		for t, f := range tasks {
			if w.Has(f) == answers[t] {
				p *= pc
			} else {
				p *= 1 - pc
			}
		}
		sum += p
	}
	return sum
}

func TestAnswerSetProbMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		j := randomJoint(t, rng, n, 1+rng.Intn(12))
		k := 1 + rng.Intn(3)
		if k > n {
			k = n
		}
		tasks := rng.Perm(n)[:k]
		answers := make([]bool, k)
		for i := range answers {
			answers[i] = rng.Intn(2) == 0
		}
		pc := rng.Float64()
		got, err := j.AnswerSetProb(tasks, answers, pc)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteAnswerSetProb(j, tasks, answers, pc)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("AnswerSetProb = %v, brute force = %v", got, want)
		}
	}
}

// TestAnswerSetProbTotalsOne: the evidence probabilities over all 2^k
// answer vectors form a distribution.
func TestAnswerSetProbTotalsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(5)
		j := randomJoint(t, rng, n, 1+rng.Intn(10))
		k := 1 + rng.Intn(3)
		if k > n {
			k = n
		}
		tasks := rng.Perm(n)[:k]
		pc := rng.Float64()
		var total float64
		for pat := 0; pat < 1<<uint(k); pat++ {
			answers := make([]bool, k)
			for i := range answers {
				answers[i] = pat&(1<<uint(i)) != 0
			}
			p, err := j.AnswerSetProb(tasks, answers, pc)
			if err != nil {
				t.Fatal(err)
			}
			if p < 0 {
				t.Fatalf("negative evidence probability %v", p)
			}
			total += p
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("answer probabilities sum to %v", total)
		}
	}
}

func TestAnswerSetProbEdges(t *testing.T) {
	j, err := New(2, []World{0b01, 0b10}, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// No evidence has probability 1.
	if p, err := j.AnswerSetProb(nil, nil, 0.8); err != nil || p != 1 {
		t.Errorf("AnswerSetProb(nil) = %v, %v", p, err)
	}
	// A perfect crowd reports the support pattern masses exactly.
	p, err := j.AnswerSetProb([]int{0}, []bool{true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.3) > 1e-12 {
		t.Errorf("P(f0 answered true | pc=1) = %v, want 0.3", p)
	}
	// Validation.
	if _, err := j.AnswerSetProb([]int{0}, nil, 0.8); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := j.AnswerSetProb([]int{2}, []bool{true}, 0.8); err == nil {
		t.Error("out-of-range task accepted")
	}
	if _, err := j.AnswerSetProb([]int{0}, []bool{true}, 1.5); err == nil {
		t.Error("accuracy > 1 accepted")
	}
	if _, err := j.AnswerSetProb([]int{0}, []bool{true}, math.NaN()); err == nil {
		t.Error("NaN accuracy accepted")
	}
}

// TestConditionRenormalizes: every posterior is a valid distribution with
// total mass 1, on the same fact count, and agrees with per-world Bayes.
func TestConditionRenormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		j := randomJoint(t, rng, n, 1+rng.Intn(12))
		k := 1 + rng.Intn(3)
		if k > n {
			k = n
		}
		tasks := rng.Perm(n)[:k]
		answers := make([]bool, k)
		for i := range answers {
			answers[i] = rng.Intn(2) == 0
		}
		pc := 0.5 + rng.Float64()*0.5
		post, err := j.Condition(tasks, answers, pc)
		if err != nil {
			t.Fatal(err)
		}
		if post.N() != j.N() {
			t.Fatalf("posterior over %d facts, want %d", post.N(), j.N())
		}
		if err := post.Validate(); err != nil {
			t.Fatalf("posterior invalid: %v", err)
		}
		// Bayes per world: P(o|e) = P(e|o) P(o) / P(e).
		pe, err := j.AnswerSetProb(tasks, answers, pc)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range j.Worlds() {
			like := j.Probs()[i]
			for t2, f := range tasks {
				if w.Has(f) == answers[t2] {
					like *= pc
				} else {
					like *= 1 - pc
				}
			}
			if math.Abs(post.Prob(w)-like/pe) > 1e-9 {
				t.Fatalf("P(%v|e) = %v, want %v", w, post.Prob(w), like/pe)
			}
		}
		// The receiver is untouched.
		if err := j.Validate(); err != nil {
			t.Fatalf("prior mutated: %v", err)
		}
	}
}

// TestConditionRunningUpdate pins the paper's update walkthrough: asking
// f1 on the running example and hearing "true" at Pc = 0.8 moves the f1
// marginal from 0.5 to exactly 0.8.
func TestConditionRunningUpdate(t *testing.T) {
	_, j := RunningExample()
	pe, err := j.AnswerSetProb([]int{0}, []bool{true}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// P(e) = 0.5*0.8 + 0.5*0.2 = 0.5 by symmetry of the f1 marginal.
	if math.Abs(pe-0.5) > 1e-9 {
		t.Errorf("P(e) = %v, want 0.5", pe)
	}
	post, err := j.Condition([]int{0}, []bool{true}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := post.Marginal(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.8) > 1e-12 {
		t.Errorf("posterior P(f1) = %v, want 0.8", m)
	}
	// Conditioning never grows the support.
	if post.SupportSize() != j.SupportSize() {
		t.Errorf("support changed: %d -> %d at pc<1", j.SupportSize(), post.SupportSize())
	}
}

func TestConditionSequentialAccumulation(t *testing.T) {
	// Conditioning on two answers at once equals conditioning twice.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(4)
		j := randomJoint(t, rng, n, 2+rng.Intn(10))
		perm := rng.Perm(n)
		tasks := perm[:2]
		answers := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0}
		pc := 0.5 + rng.Float64()*0.5

		both, err := j.Condition(tasks, answers, pc)
		if err != nil {
			t.Fatal(err)
		}
		first, err := j.Condition(tasks[:1], answers[:1], pc)
		if err != nil {
			t.Fatal(err)
		}
		chained, err := first.Condition(tasks[1:], answers[1:], pc)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range both.Worlds() {
			if math.Abs(both.Probs()[i]-chained.Prob(w)) > 1e-9 {
				t.Fatalf("batch vs chained conditioning differ at world %v", w)
			}
		}
	}
}

func TestConditionPerfectCrowd(t *testing.T) {
	// At pc = 1 contradicted worlds drop from the support.
	j, err := New(3, []World{0b001, 0b011, 0b110}, []float64{0.2, 0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	post, err := j.Condition([]int{0}, []bool{true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if post.SupportSize() != 2 {
		t.Fatalf("support = %v, want the two f0-true worlds", post.Worlds())
	}
	if math.Abs(post.Prob(0b001)-0.4) > 1e-12 || math.Abs(post.Prob(0b011)-0.6) > 1e-12 {
		t.Errorf("posterior = %v, want [0.4 0.6]", post.Probs())
	}
	// An impossible answer set is an error, not a NaN distribution.
	certain, err := New(2, []World{0b11}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := certain.Condition([]int{0}, []bool{false}, 1); !errors.Is(err, ErrImpossibleAnswers) {
		t.Errorf("contradiction at pc=1: err = %v, want ErrImpossibleAnswers", err)
	}
}

func TestConditionNoEvidence(t *testing.T) {
	j, err := New(2, []World{0, 3}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	post, err := j.Condition(nil, nil, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if post == j {
		t.Error("Condition(nil) should return an independent copy")
	}
	if post.Entropy() != j.Entropy() || post.Prob(3) != j.Prob(3) {
		t.Error("Condition(nil) changed the distribution")
	}
}

func BenchmarkCondition(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	j := randomJoint(b, rng, 16, 512)
	tasks := []int{1, 5, 9}
	answers := []bool{true, false, true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := j.Condition(tasks, answers, 0.8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConditionKernel times one Bayesian update — likelihoods,
// normalization, marginals and entropy — on the shapes the service
// conditions: an Independent prior over n facts (the full 2^n cube) and
// k answers, through the scalar (fixed pc) and the weighted (per-worker
// channel) kernel. The statistics are computed on first read, so each
// posterior's entropy and marginals are read to time the whole update.
func BenchmarkConditionKernel(b *testing.B) {
	for _, kind := range []string{"scalar", "weighted"} {
		for _, n := range []int{10, 12} {
			m := make([]float64, n)
			for i := range m {
				m[i] = 0.3 + 0.4*float64(i)/float64(n)
			}
			prior, err := Independent(m)
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range []int{2, 3} {
				tasks := []int{1, n / 2, n - 1}[:k]
				answers := []bool{true, false, true}[:k]
				sens := []float64{0.9, 0.7, 0.8}[:k]
				spec := []float64{0.85, 0.6, 0.75}[:k]
				b.Run(fmt.Sprintf("%s/n=%d/k=%d", kind, n, k), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						var post *Joint
						var err error
						if kind == "scalar" {
							post, err = prior.Condition(tasks, answers, 0.8)
						} else {
							post, err = prior.ConditionWeighted(tasks, answers, sens, spec)
						}
						if err != nil {
							b.Fatal(err)
						}
						post.Entropy()
						post.Marginals()
					}
				})
			}
		}
	}
}
