package dist

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crowdfusion/internal/info"
)

// Joint is a probability distribution over possible worlds with an
// explicit sparse support: the worlds with positive probability, sorted
// ascending and deduplicated, with a parallel probability vector that
// sums to 1.
//
// A Joint is immutable after construction. Its entropy and per-fact
// marginals are computed together on the first read of either, once, and
// cached: a posterior nobody reads the statistics of (an intermediate one
// of a journal replay) never pays for them, and after the first read the
// accessors the selection inner loop leans on (Entropy, Marginal, Prob) do
// no allocation and no recomputation. Concurrent first reads are safe.
//
// The marginals live in the header: up to MaxDenseFacts facts they slice
// an inline array, so the probability buffer holds the probabilities and
// nothing else. A 12-fact posterior is then one exact 32 KiB buffer and a
// header, where a buffer with the marginals behind the probabilities
// would be rounded up to a 40 KiB span. A Joint is never copied by value
// (its marginals would keep pointing into the original).
type Joint struct {
	n      int
	worlds []World   // sorted ascending, no duplicates, no zero-mass entries
	probs  []float64 // parallel to worlds; sums to 1; cap == len

	stats     sync.Once // guards the two fields below
	marginals []float64 // marginals[i] = P(fact i is true); arrives zeroed
	entropy   float64   // H(O) in bits

	inline [MaxDenseFacts]float64 // backs marginals when n <= MaxDenseFacts
}

// newJoint builds the header of every Joint over the support ws with
// probabilities ps, capped at their length, and its marginals zeroed for
// computeStats: a slice of the inline array, or for the sparse-only
// n > MaxDenseFacts a buffer of their own.
func newJoint(n int, ws []World, ps []float64) *Joint {
	j := &Joint{n: n, worlds: ws, probs: ps[:len(ps):len(ps)]}
	if n <= MaxDenseFacts {
		j.marginals = j.inline[:n:n]
	} else {
		j.marginals = make([]float64, n)
	}
	return j
}

// Construction errors.
var (
	// ErrNoWorlds is returned when a constructor receives an empty support.
	ErrNoWorlds = errors.New("dist: distribution needs at least one world")
	// ErrZeroMass is returned when the support's total weight is not
	// positive, so no normalized distribution exists.
	ErrZeroMass = errors.New("dist: total probability mass must be positive")
)

// New builds a sparse joint distribution over n facts. The probabilities
// are treated as non-negative weights: duplicate worlds are merged,
// zero-weight worlds are dropped, and the remaining weights are
// normalized to total mass 1. The inputs are not modified.
//
// Errors: n outside [1, MaxFacts], mismatched slice lengths, an empty
// support, a negative or non-finite weight, zero total mass, or a world
// judging facts at or beyond index n.
func New(n int, worlds []World, probs []float64) (*Joint, error) {
	if n < 1 || n > MaxFacts {
		return nil, fmt.Errorf("dist: fact count %d outside [1, %d]", n, MaxFacts)
	}
	if len(worlds) != len(probs) {
		return nil, fmt.Errorf("dist: %d worlds but %d probabilities", len(worlds), len(probs))
	}
	if len(worlds) == 0 {
		return nil, ErrNoWorlds
	}
	for i, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return nil, fmt.Errorf("dist: world %d has invalid probability %v", i, p)
		}
	}
	for i, w := range worlds {
		// Shifting by n is well-defined for n = MaxFacts = 64: the
		// result is 0, so every 64-bit world is in range.
		if uint64(w)>>uint(n) != 0 {
			return nil, fmt.Errorf("dist: world %d (%#x) judges facts beyond index %d", i, uint64(w), n-1)
		}
	}

	// Sort a copy of the (world, weight) pairs by world and merge
	// duplicates in one pass.
	idx := make([]int, len(worlds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return worlds[idx[a]] < worlds[idx[b]] })
	ws := make([]World, 0, len(worlds))
	ps := make([]float64, 0, len(worlds))
	for _, i := range idx {
		if len(ws) > 0 && ws[len(ws)-1] == worlds[i] {
			ps[len(ps)-1] += probs[i]
			continue
		}
		ws = append(ws, worlds[i])
		ps = append(ps, probs[i])
	}
	return finish(n, ws, ws, ps, info.Sum(ps))
}

// Dense builds a distribution over the full 2^n world cube, with probs
// indexed by world value (probs[w] is the weight of World(w)). Weights
// are normalized; zero-weight worlds are dropped from the support.
func Dense(n int, probs []float64) (*Joint, error) {
	if n < 1 || n > MaxDenseFacts {
		return nil, fmt.Errorf("dist: dense fact count %d outside [1, %d]", n, MaxDenseFacts)
	}
	if want := 1 << uint(n); len(probs) != want {
		return nil, fmt.Errorf("dist: dense support over %d facts needs %d probabilities, got %d",
			n, want, len(probs))
	}
	for w, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return nil, fmt.Errorf("dist: world %d has invalid probability %v", w, p)
		}
	}
	return dense(n, append([]float64(nil), probs...))
}

// dense is Dense on validated weights it takes ownership of. Without a
// zero weight the support is the shared cube, so no world slice is built
// and ps becomes the distribution's probabilities in place.
func dense(n int, ps []float64) (*Joint, error) {
	var ws, kept []World
	if slices.Contains(ps, 0) {
		ws = make([]World, len(ps))
		for w := range ws {
			ws[w] = World(w)
		}
		kept = ws
	} else {
		ws = fullCube(n, nil)
	}
	return finish(n, ws, kept, ps, info.Sum(ps))
}

// Uniform builds the uniform prior over all 2^n worlds — the
// maximum-entropy distribution, with H = n bits.
func Uniform(n int) (*Joint, error) {
	if n < 1 || n > MaxDenseFacts {
		return nil, fmt.Errorf("dist: uniform fact count %d outside [1, %d]", n, MaxDenseFacts)
	}
	size := 1 << uint(n)
	probs := make([]float64, size)
	p := 1 / float64(size)
	for i := range probs {
		probs[i] = p
	}
	return dense(n, probs)
}

// Independent builds the product distribution from per-fact marginal
// correctness probabilities — the bridge from fusion methods that output
// only marginals. World w gets probability prod_i (m_i if w judges fact i
// true, else 1-m_i); worlds ruled out by a 0 or 1 marginal are dropped.
func Independent(marginals []float64) (*Joint, error) {
	n := len(marginals)
	if n < 1 || n > MaxDenseFacts {
		return nil, fmt.Errorf("dist: independent fact count %d outside [1, %d]", n, MaxDenseFacts)
	}
	for i, m := range marginals {
		if math.IsNaN(m) || m < 0 || m > 1 {
			return nil, fmt.Errorf("dist: marginal %d = %v outside [0, 1]", i, m)
		}
	}
	probs := make([]float64, 1<<uint(n))
	probs[0] = 1
	size := 1
	for _, m := range marginals {
		for w := 0; w < size; w++ {
			p := probs[w]
			probs[w] = p * (1 - m)
			probs[w|size] = p * m
		}
		size <<= 1
	}
	return dense(n, probs)
}

// cubes[n] is the full support World(0)…World(2^n−1) over n facts,
// shared by every Joint whose support is the whole cube.
var cubes [MaxDenseFacts + 1]atomic.Pointer[[]World]

// fullCube returns the shared full support over n facts. ws is nil or
// equal to it; the first caller's ws (or, if nil, a fresh cube) becomes
// the shared slice.
func fullCube(n int, ws []World) []World {
	if c := cubes[n].Load(); c != nil {
		return *c
	}
	if ws == nil {
		ws = make([]World, 1<<uint(n))
		for w := range ws {
			ws[w] = World(w)
		}
	}
	// A fresh variable, so the hot path above does not move ws to the heap.
	c := ws[:len(ws):len(ws)]
	if cubes[n].CompareAndSwap(nil, &c) {
		return c
	}
	return *cubes[n].Load()
}

// finish turns the masses ps, parallel to the sorted, duplicate-free
// support ws, into a Joint in place, given their Kahan total. It is the
// one normalize pass, shared by every constructor and every conditioning:
// for each nonzero mass, in support order, it stores mass/total as the
// next probability (ps is compacted over its zeros). When kept is non-nil
// the surviving worlds are compacted into it (kept may be ws itself), else
// ps must hold no zero. A support of all 2^n worlds is the shared cube, so
// full-support priors and their posteriors hold one world array between
// them. Every caller allocates ps at the size of the support it passes,
// so the Joint's probability buffer is exact-size; the marginals come
// with the header (newJoint).
func finish(n int, ws, kept []World, ps []float64, total float64) (*Joint, error) {
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return nil, ErrZeroMass
	}
	ws = ws[:len(ps)]
	out := 0
	for i, p := range ps {
		if p == 0 {
			continue
		}
		if kept != nil {
			kept[out] = ws[i]
		}
		ps[out] = p / total
		out++
	}
	if out == 0 {
		return nil, ErrZeroMass
	}
	if kept != nil {
		ws = kept[:out]
	}
	if n <= MaxDenseFacts && out == 1<<uint(n) {
		// Sorted, duplicate-free and in range: exactly the cube.
		ws = fullCube(n, ws)
	}
	return newJoint(n, ws, ps[:out]), nil
}

// computeStats fills the marginals and the entropy, once. For each world,
// in support order, it adds the world's probability to the marginal of
// every fact the world judges true and its -p·log2 p to a
// Kahan-compensated entropy, clamped at 0. The sums run in info.Entropy's
// order with its arithmetic, so the bits are its bits.
func (j *Joint) computeStats() {
	j.stats.Do(func() {
		var h, comp float64
		worlds, probs, marginals := j.worlds, j.probs[:len(j.worlds)], j.marginals
		for i, p := range probs {
			for m := uint64(worlds[i]); m != 0; m &= m - 1 {
				marginals[bits.TrailingZeros64(m)] += p
			}
			h, comp = kahan(h, comp, -info.PLogP(p))
		}
		if h < 0 {
			h = 0
		}
		j.entropy = h
	})
}

// N returns the number of facts the distribution ranges over.
func (j *Joint) N() int { return j.n }

// SupportSize returns the number of worlds with positive probability.
func (j *Joint) SupportSize() int { return len(j.worlds) }

// Worlds returns the support, sorted ascending. The slice is shared with
// the Joint — for a full support, with every full-support Joint over the
// same facts — and must not be modified.
func (j *Joint) Worlds() []World { return j.worlds }

// Probs returns the probabilities parallel to Worlds, summing to 1. The
// slice is shared with the Joint and must not be modified.
func (j *Joint) Probs() []float64 { return j.probs }

// Prob returns P(w): the probability of the exact world w, or 0 when w is
// outside the support. O(log |support|), no allocation.
func (j *Joint) Prob(w World) float64 {
	lo, hi := 0, len(j.worlds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if j.worlds[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(j.worlds) && j.worlds[lo] == w {
		return j.probs[lo]
	}
	return 0
}

// Marginal returns P(fact i is true): the total mass of worlds judging
// fact i true. Served from the statistics cache.
func (j *Joint) Marginal(i int) (float64, error) {
	if i < 0 || i >= j.n {
		return 0, fmt.Errorf("dist: fact %d out of range [0, %d)", i, j.n)
	}
	j.computeStats()
	return j.marginals[i], nil
}

// Marginals returns the per-fact marginal correctness probabilities. The
// slice is shared with the Joint and must not be modified.
func (j *Joint) Marginals() []float64 {
	j.computeStats()
	return j.marginals
}

// Entropy returns H(O), the Shannon entropy of the distribution in bits
// (Definition 4's uncertainty measure). Served from the statistics cache:
// after the first read, no allocation and no recomputation.
func (j *Joint) Entropy() float64 {
	j.computeStats()
	return j.entropy
}

// Utility returns the paper's quality measure Q = -H(O) (Definition 4): 0
// for a certain output, increasingly negative with uncertainty.
func (j *Joint) Utility() float64 { return -j.Entropy() }

// FactEntropy returns H({f_i | i in facts}): the entropy of the joint
// judgment distribution of the given facts — the Pc = 1 degenerate case of
// the task entropy (the paper's discussion after Equation 4). The facts
// must be distinct and in range.
func (j *Joint) FactEntropy(facts []int) (float64, error) {
	if err := j.checkFacts(facts); err != nil {
		return 0, err
	}
	if len(facts) == 0 {
		return 0, nil
	}
	// Group worlds by judgment pattern with a sort instead of a map: one
	// allocation, cache-friendly, and a deterministic summation order (map
	// iteration order would reorder the entropy accumulation run to run).
	type patMass struct {
		pat  uint64
		mass float64
	}
	pairs := make([]patMass, len(j.worlds))
	for i, w := range j.worlds {
		pairs[i] = patMass{pat: w.Pattern(facts), mass: j.probs[i]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].pat < pairs[b].pat })
	var sum, comp float64
	for i := 0; i < len(pairs); {
		mass := pairs[i].mass
		for i++; i < len(pairs) && pairs[i].pat == pairs[i-1].pat; i++ {
			mass += pairs[i].mass
		}
		// Kahan-compensated -sum p log2 p, matching info.Entropy.
		sum, comp = kahan(sum, comp, -info.PLogP(mass))
	}
	if sum < 0 {
		sum = 0
	}
	return sum, nil
}

// Validate re-checks the construction invariants: a sorted, duplicate-free
// support of in-range worlds with positive probabilities summing to 1.
// The constructors establish all of this, so Validate failing means the
// shared support slices were modified; it exists as a cheap integrity
// check for tests and long-lived pipelines.
func (j *Joint) Validate() error {
	if j.n < 1 || j.n > MaxFacts {
		return fmt.Errorf("dist: fact count %d outside [1, %d]", j.n, MaxFacts)
	}
	if len(j.worlds) == 0 || len(j.worlds) != len(j.probs) {
		return fmt.Errorf("dist: support of %d worlds with %d probabilities", len(j.worlds), len(j.probs))
	}
	for i, w := range j.worlds {
		if uint64(w)>>uint(j.n) != 0 {
			return fmt.Errorf("dist: world %d (%#x) judges facts beyond index %d", i, uint64(w), j.n-1)
		}
		if i > 0 && j.worlds[i-1] >= w {
			return fmt.Errorf("dist: support not sorted at index %d", i)
		}
		if j.probs[i] <= 0 || math.IsNaN(j.probs[i]) || math.IsInf(j.probs[i], 0) {
			return fmt.Errorf("dist: world %d has invalid probability %v", i, j.probs[i])
		}
	}
	return info.Validate(j.probs)
}

// Clone returns an independent copy of the distribution. Joints are
// immutable, so this is only needed to decouple lifetimes. The copy
// computes its statistics on its own first read, to the same bits.
func (j *Joint) Clone() *Joint {
	return newJoint(j.n, append([]World(nil), j.worlds...), append([]float64(nil), j.probs...))
}

// Truncate returns a distribution keeping only the m highest-probability
// worlds of the support, renormalized — the support-truncation ablation
// of the benchmarks. Ties are broken toward smaller worlds for
// determinism. If m is at least the support size, the receiver itself is
// returned.
func (j *Joint) Truncate(m int) *Joint {
	if m >= len(j.worlds) {
		return j
	}
	if m < 1 {
		m = 1
	}
	idx := make([]int, len(j.worlds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if j.probs[idx[a]] != j.probs[idx[b]] {
			return j.probs[idx[a]] > j.probs[idx[b]]
		}
		return j.worlds[idx[a]] < j.worlds[idx[b]]
	})
	kept := idx[:m]
	sort.Ints(kept)
	ws := make([]World, m)
	ps := make([]float64, m)
	for i, k := range kept {
		ws[i] = j.worlds[k]
		ps[i] = j.probs[k]
	}
	t, err := finish(j.n, ws, ws, ps, info.Sum(ps))
	if err != nil {
		// Unreachable: the support is non-empty with positive mass.
		panic(fmt.Sprintf("dist: truncate: %v", err))
	}
	return t
}

// checkFacts validates that every index is in range and distinct.
func (j *Joint) checkFacts(facts []int) error {
	var seen uint64
	for _, f := range facts {
		if f < 0 || f >= j.n {
			return fmt.Errorf("dist: fact %d out of range [0, %d)", f, j.n)
		}
		if seen&(1<<uint(f)) != 0 {
			return fmt.Errorf("dist: duplicate fact %d", f)
		}
		seen |= 1 << uint(f)
	}
	return nil
}
