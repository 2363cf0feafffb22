package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"crowdfusion/internal/dist"
)

// denseTestJoint is a 12-fact product prior over the full cube, the
// daemon's prior shape, shifted so distinct shifts give distinct joints.
func denseTestJoint(t *testing.T, shift float64) *dist.Joint {
	t.Helper()
	m := make([]float64, 12)
	for i := range m {
		m[i] = 0.25 + shift + 0.035*float64(i)
	}
	j, err := dist.Independent(m)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// answerBits is a Preprocessed's answer vector as bits, for comparison.
func answerBits(p *Preprocessed) []uint64 {
	out := make([]uint64, len(p.answerP))
	for r, a := range p.answerP {
		out[r] = math.Float64bits(a)
	}
	return out
}

// TestPreprocessOwnsAnswerVector: a greedy selection preprocesses into
// its pooled scratch and leaves its answer vector there, but what the
// exported Preprocess returns is the caller's own. Later selections over
// other joints reuse the pool, on the same goroutine and on four at once
// (under -race, a shared buffer is also a reported race), and the
// returned vector keeps its bits through all of them. Both strategies are
// covered: a dense joint takes the butterfly, a small sparse one the
// pairwise loop.
func TestPreprocessOwnsAnswerVector(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	joints := []*dist.Joint{denseTestJoint(t, 0), randomSparseJoint(t, rng, 14, 200)}
	others := []*dist.Joint{denseTestJoint(t, 0.05), denseTestJoint(t, 0.1), randomSparseJoint(t, rng, 12, 900)}
	selectors := []Selector{NewGreedyPrunePre(), NewGreedyPre()}
	churn := func(rounds int) error {
		for r := 0; r < rounds; r++ {
			for _, o := range others {
				for _, sel := range selectors {
					if _, err := sel.Select(o, 4, 0.7+0.05*float64(r%4)); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	check := func(what string, p *Preprocessed, want []uint64) {
		if !slices.Equal(answerBits(p), want) {
			t.Errorf("%s: answer vector changed after later selections", what)
		}
	}

	for i, j := range joints {
		p, err := Preprocess(j, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		want := answerBits(p)
		if err := churn(3); err != nil {
			t.Fatal(err)
		}
		check([]string{"butterfly", "pairwise"}[i], p, want)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := joints[g%len(joints)]
			p, err := Preprocess(j, 0.75)
			if err != nil {
				t.Error(err)
				return
			}
			want := answerBits(p)
			if err := churn(2); err != nil {
				t.Error(err)
				return
			}
			check("concurrent", p, want)
		}()
	}
	wg.Wait()
}

// TestGreedyPrunePreSelectAllocs: a warm selection by the daemon's
// selector on a dense 12-fact prior allocates no answer vector, only its
// small per-call state: under 4 KiB a call, where the 4096-world answer
// vector alone is 32 KiB. Each of 50 calls is measured on its own and
// the median gates, because under -race sync.Pool drops a quarter of what
// it is given back, so some calls rebuild their scratch.
func TestGreedyPrunePreSelectAllocs(t *testing.T) {
	const calls, bound = 50, 4 << 10
	j := denseTestJoint(t, 0)
	sel := NewGreedyPrunePre()
	if _, err := sel.Select(j, 4, 0.8); err != nil {
		t.Fatal(err)
	}
	per := make([]uint64, calls)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		_, err := sel.Select(j, 4, 0.8)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per)
	if med := per[calls/2]; med >= bound {
		t.Errorf("warm GreedyPrunePre select allocates %d B (median of %d calls), want under %d", med, calls, bound)
	}
}
