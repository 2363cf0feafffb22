package crowd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crowdfusion/internal/dist"
)

func TestNewModel(t *testing.T) {
	for _, pc := range []float64{0.5, 0.7, 1.0} {
		if _, err := NewModel(pc); err != nil {
			t.Errorf("NewModel(%v) rejected: %v", pc, err)
		}
	}
	for _, pc := range []float64{0.49, -1, 1.01, math.NaN()} {
		if _, err := NewModel(pc); err != ErrAccuracyRange {
			t.Errorf("NewModel(%v) err = %v, want ErrAccuracyRange", pc, err)
		}
	}
}

func TestModelEntropy(t *testing.T) {
	m, _ := NewModel(0.8)
	if got := m.Entropy(); math.Abs(got-0.7219280948873623) > 1e-12 {
		t.Errorf("H(Crowd) at 0.8 = %v", got)
	}
	perfect, _ := NewModel(1.0)
	if perfect.Entropy() != 0 {
		t.Error("perfect crowd should have zero entropy")
	}
	coin, _ := NewModel(0.5)
	if math.Abs(coin.Entropy()-1) > 1e-12 {
		t.Error("random crowd should have one bit of entropy")
	}
}

func TestModelSampleRate(t *testing.T) {
	m, _ := NewModel(0.8)
	rng := rand.New(rand.NewSource(1))
	const trials = 200000
	correct := 0
	for i := 0; i < trials; i++ {
		truth := i%2 == 0
		if m.Sample(rng, truth) == truth {
			correct++
		}
	}
	rate := float64(correct) / trials
	if math.Abs(rate-0.8) > 0.005 {
		t.Errorf("empirical accuracy = %v, want ~0.8", rate)
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	truth := dist.World(0b1011)
	a, err := NewSimulator(truth, 0.8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSimulator(truth, 0.8, 42)
	tasks := []int{0, 1, 2, 3, 0, 1}
	ansA := a.Answers(tasks)
	ansB := b.Answers(tasks)
	for i := range ansA {
		if ansA[i] != ansB[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	if a.Asked() != len(tasks) {
		t.Errorf("Asked = %d, want %d", a.Asked(), len(tasks))
	}
}

func TestSimulatorAccuracy(t *testing.T) {
	truth := dist.World(0b0101)
	s, err := NewSimulator(truth, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 100000
	correct := 0
	for i := 0; i < trials; i++ {
		ans := s.Answers([]int{i % 4})
		if ans[0] == truth.Has(i%4) {
			correct++
		}
	}
	rate := float64(correct) / trials
	if math.Abs(rate-0.9) > 0.005 {
		t.Errorf("simulator accuracy = %v, want ~0.9", rate)
	}
}

func TestSimulatorPerTaskOverride(t *testing.T) {
	truth := dist.World(0b1)
	s, err := NewSimulator(truth, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Fact 0 is made adversarially hard: workers are wrong 70% of the time.
	if err := s.SetTaskAccuracy(0, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTaskAccuracy(0, 1.5); err == nil {
		t.Error("out-of-range override accepted")
	}
	const trials = 50000
	correct := 0
	for i := 0; i < trials; i++ {
		if s.Answers([]int{0})[0] == true {
			correct++
		}
	}
	rate := float64(correct) / trials
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("override accuracy = %v, want ~0.3", rate)
	}
}

func TestSimulatorRejectsBadPc(t *testing.T) {
	if _, err := NewSimulator(0, 0.3, 1); err != ErrAccuracyRange {
		t.Errorf("NewSimulator(pc=0.3) err = %v", err)
	}
}

func TestPoolConstruction(t *testing.T) {
	if _, err := NewPool(nil); err != ErrNoWorkers {
		t.Errorf("empty pool err = %v", err)
	}
	if _, err := NewPool([]Worker{{ID: "a", Accuracy: 0.4}}); err == nil {
		t.Error("sub-0.5 worker accepted")
	}
	p, err := NewPool([]Worker{
		{ID: "b", Accuracy: 0.8},
		{ID: "a", Accuracy: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2 {
		t.Errorf("Size = %d", p.Size())
	}
	// Sorted by ID for determinism.
	if p.Workers()[0].ID != "a" {
		t.Errorf("workers not sorted: %v", p.Workers())
	}
	if got := p.MeanAccuracy(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("MeanAccuracy = %v, want 0.7", got)
	}
}

func TestRandomPool(t *testing.T) {
	p, err := RandomPool(50, 0.6, 0.95, 11)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 50 {
		t.Fatalf("Size = %d", p.Size())
	}
	for _, w := range p.Workers() {
		if w.Accuracy < 0.6 || w.Accuracy > 0.95 {
			t.Errorf("worker %s accuracy %v outside [0.6, 0.95]", w.ID, w.Accuracy)
		}
	}
	if _, err := RandomPool(0, 0.6, 0.9, 1); err != ErrNoWorkers {
		t.Errorf("RandomPool(0) err = %v", err)
	}
	if _, err := RandomPool(5, 0.4, 0.9, 1); err != ErrAccuracyRange {
		t.Errorf("RandomPool(lo<0.5) err = %v", err)
	}
	// Determinism.
	q, _ := RandomPool(50, 0.6, 0.95, 11)
	for i := range p.Workers() {
		if p.Workers()[i].Accuracy != q.Workers()[i].Accuracy {
			t.Fatal("RandomPool not deterministic")
		}
	}
}

func TestMajorityAnswer(t *testing.T) {
	p, err := RandomPool(30, 0.8, 0.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const trials = 20000
	correct := 0
	for i := 0; i < trials; i++ {
		truth := i%2 == 0
		got, answers := p.MajorityAnswer(rng, 3, truth, 5)
		if len(answers) != 5 {
			t.Fatalf("redundancy = %d answers", len(answers))
		}
		for _, a := range answers {
			if a.Fact != 3 {
				t.Fatalf("answer for wrong fact %d", a.Fact)
			}
		}
		if got == truth {
			correct++
		}
	}
	rate := float64(correct) / trials
	want := MajorityAccuracy(0.8, 5) // 0.94208
	if math.Abs(rate-want) > 0.01 {
		t.Errorf("majority accuracy = %v, want ~%v", rate, want)
	}
}

func TestMajorityAnswerEdgeCases(t *testing.T) {
	p, _ := RandomPool(4, 0.9, 0.9, 1)
	rng := rand.New(rand.NewSource(2))
	// Redundancy above pool size is capped (and made odd).
	_, answers := p.MajorityAnswer(rng, 0, true, 99)
	if len(answers) != 3 {
		t.Errorf("capped redundancy = %d, want 3", len(answers))
	}
	// Non-positive redundancy becomes 1.
	_, answers = p.MajorityAnswer(rng, 0, true, 0)
	if len(answers) != 1 {
		t.Errorf("zero redundancy = %d answers, want 1", len(answers))
	}
	// Even redundancy is rounded down to odd.
	_, answers = p.MajorityAnswer(rng, 0, true, 4)
	if len(answers) != 3 {
		t.Errorf("even redundancy = %d answers, want 3", len(answers))
	}
}

func TestMajorityAccuracy(t *testing.T) {
	// r=1 is the base accuracy.
	if got := MajorityAccuracy(0.8, 1); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("MajorityAccuracy(0.8,1) = %v", got)
	}
	// Known value: 3 workers at 0.8 -> 0.8^3 + 3*0.8^2*0.2 = 0.896.
	if got := MajorityAccuracy(0.8, 3); math.Abs(got-0.896) > 1e-9 {
		t.Errorf("MajorityAccuracy(0.8,3) = %v, want 0.896", got)
	}
	// Even r rounds up.
	if got := MajorityAccuracy(0.8, 2); math.Abs(got-0.896) > 1e-9 {
		t.Errorf("MajorityAccuracy(0.8,2) = %v, want 0.896", got)
	}
	// Degenerate accuracies.
	if got := MajorityAccuracy(1, 5); got != 1 {
		t.Errorf("MajorityAccuracy(1,5) = %v", got)
	}
	if got := MajorityAccuracy(0, 5); got != 0 {
		t.Errorf("MajorityAccuracy(0,5) = %v", got)
	}
}

func TestMajorityAccuracyMonotoneInRedundancy(t *testing.T) {
	// For pc > 0.5, adding redundancy never hurts.
	f := func(pcRaw float64, rRaw uint8) bool {
		pc := 0.5 + math.Mod(math.Abs(pcRaw), 0.5)
		r := 1 + int(rRaw)%10
		return MajorityAccuracy(pc, r+2) >= MajorityAccuracy(pc, r)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEstimatePc(t *testing.T) {
	gold := []bool{true, false, true, true, false, true, false, true}
	// Crowd gets 7 of 8 right.
	answers := append([]bool(nil), gold...)
	answers[0] = !answers[0]
	est, err := EstimatePc(gold, answers)
	if err != nil {
		t.Fatal(err)
	}
	want := (7.0 + 1) / (8 + 2)
	if math.Abs(est-want) > 1e-12 {
		t.Errorf("EstimatePc = %v, want %v", est, want)
	}
	// All wrong still clamps to the legal crowd range.
	allWrong := make([]bool, len(gold))
	for i := range gold {
		allWrong[i] = !gold[i]
	}
	est, err = EstimatePc(gold, allWrong)
	if err != nil {
		t.Fatal(err)
	}
	if est != 0.5 {
		t.Errorf("EstimatePc(all wrong) = %v, want clamp to 0.5", est)
	}
	if _, err := EstimatePc(nil, nil); err != ErrNoGold {
		t.Errorf("EstimatePc(no gold) err = %v", err)
	}
	if _, err := EstimatePc(gold, gold[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestEstimatePcRecovers(t *testing.T) {
	// A large gold set recovers the true accuracy to within a point.
	truth := dist.World(0)
	for i := 0; i < 32; i += 2 {
		truth = truth.Set(i, true)
	}
	s, _ := NewSimulator(truth, 0.86, 77) // paper's observed worker rate
	n := 5000
	gold := make([]bool, n)
	answers := make([]bool, n)
	for i := 0; i < n; i++ {
		f := i % 32
		gold[i] = truth.Has(f)
		answers[i] = s.Answers([]int{f})[0]
	}
	est, err := EstimatePc(gold, answers)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-0.86) > 0.02 {
		t.Errorf("recovered Pc = %v, want ~0.86", est)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(86, 100)
	if lo >= hi {
		t.Fatalf("degenerate interval [%v, %v]", lo, hi)
	}
	if lo > 0.86 || hi < 0.86 {
		t.Errorf("interval [%v, %v] excludes the point estimate", lo, hi)
	}
	// Wider with less data.
	lo2, hi2 := WilsonInterval(9, 10)
	if hi2-lo2 <= hi-lo {
		t.Error("interval did not widen with fewer trials")
	}
	lo3, hi3 := WilsonInterval(0, 0)
	if lo3 != 0 || hi3 != 1 {
		t.Errorf("no-data interval = [%v, %v], want [0, 1]", lo3, hi3)
	}
}

func TestErrorClassString(t *testing.T) {
	want := map[ErrorClass]string{
		Easy:           "easy",
		WrongOrder:     "wrong-order",
		AdditionalInfo: "additional-info",
		Misspelling:    "misspelling",
		ErrorClass(99): "ErrorClass(99)",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
	if len(ErrorClasses) != 4 {
		t.Errorf("ErrorClasses has %d entries", len(ErrorClasses))
	}
}

func TestDifficultyProfile(t *testing.T) {
	p := DefaultDifficulty()
	base := 0.86 // the paper's observed worker accuracy

	easy := p.EffectiveAccuracy(Easy, base)
	if math.Abs(easy-base) > 1e-12 {
		t.Errorf("easy accuracy = %v, want %v", easy, base)
	}
	order := p.EffectiveAccuracy(WrongOrder, base)
	if order <= 0.5 || order >= 0.62 {
		t.Errorf("wrong-order accuracy = %v, want slightly above 0.5", order)
	}
	addl := p.EffectiveAccuracy(AdditionalInfo, base)
	// Paper: >40% of workers judge such statements incorrectly.
	if 1-addl < 0.3 {
		t.Errorf("additional-info wrong rate = %v, want a large minority", 1-addl)
	}
	miss := p.EffectiveAccuracy(Misspelling, base)
	if miss >= 0.5 {
		t.Errorf("misspelling accuracy = %v, want below 0.5", miss)
	}
	// Unknown class falls back to base accuracy.
	if got := p.EffectiveAccuracy(ErrorClass(42), base); got != base {
		t.Errorf("unknown class accuracy = %v, want base", got)
	}
	// Clamping.
	hot := DifficultyProfile{Multipliers: map[ErrorClass]float64{Easy: 10}}
	if got := hot.EffectiveAccuracy(Easy, 0.9); got != 1 {
		t.Errorf("unclamped accuracy %v", got)
	}
	cold := DifficultyProfile{Multipliers: map[ErrorClass]float64{Easy: -10}}
	if got := cold.EffectiveAccuracy(Easy, 0.9); got != 0 {
		t.Errorf("unclamped low accuracy %v", got)
	}
}
