// Package crowdfusion is a reproduction of "CrowdFusion: A Crowdsourced
// Approach on Data Fusion Refinement" (Chen, Chen and Zhang, ICDE 2017): a
// machine-crowd hybrid system that refines the output of any
// probability-based data-fusion method by asking a noisy crowd a budgeted
// set of true/false fact-judgment tasks, selected to maximize the entropy
// of the crowd-answer distribution.
//
// The package is a facade over the internal implementation:
//
//   - data model: facts, possible worlds and sparse joint distributions
//     (internal/dist);
//   - crowd model: Bernoulli workers with accuracy Pc, pools, accuracy
//     estimation (internal/crowd);
//   - task selection: brute-force OPT, the greedy (1-1/e) approximation
//     with pruning and preprocessing accelerations, a random baseline, and
//     the query-based variant (internal/core);
//   - machine-only fusion initializers: majority vote, modified CRH,
//     TruthFinder, AccuVote (internal/fusion);
//   - a synthetic Book dataset and a gMission-style platform simulator
//     (internal/bookdata, internal/platform);
//   - the full evaluation harness for the paper's tables and figures
//     (internal/eval).
//
// Beyond the library, cmd/crowdfusiond serves refinement sessions over
// HTTP/JSON (see the README's "Serving" section) and the client package
// drives it from Go.
//
// Quickstart:
//
//	joint, _ := crowdfusion.IndependentJoint([]float64{0.5, 0.63, 0.58, 0.49})
//	sel := crowdfusion.NewGreedySelector(crowdfusion.GreedyOptions{Prune: true})
//	tasks, _ := sel.Select(joint, 2, 0.8)       // which facts to ask
//	post, _ := crowdfusion.MergeAnswers(joint, tasks, answers, 0.8)
//
// or run the whole loop with Engine. See examples/ for complete programs.
package crowdfusion

import (
	"crowdfusion/internal/bookdata"
	"crowdfusion/internal/core"
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/eval"
	"crowdfusion/internal/fusion"
	"crowdfusion/internal/platform"
	"crowdfusion/internal/quality"
	"crowdfusion/internal/worlds"
)

// Data model (internal/dist).
type (
	// Fact is one {subject, predicate, object} triple with a prior
	// correctness probability.
	Fact = dist.Fact
	// World is a complete truth assignment over the facts, encoded as a
	// bitmask (one of the paper's "possible outputs").
	World = dist.World
	// Joint is a probability distribution over worlds with an explicit
	// sparse support.
	Joint = dist.Joint
)

// NewJoint builds a sparse joint distribution over n facts; duplicate
// worlds are merged and probabilities normalized.
func NewJoint(n int, worlds []World, probs []float64) (*Joint, error) {
	return dist.New(n, worlds, probs)
}

// DenseJoint builds a distribution over the full 2^n world cube with
// probabilities given in world order.
func DenseJoint(n int, probs []float64) (*Joint, error) { return dist.Dense(n, probs) }

// UniformJoint builds the uniform prior over all 2^n worlds.
func UniformJoint(n int) (*Joint, error) { return dist.Uniform(n) }

// IndependentJoint builds the product distribution from per-fact marginal
// probabilities — the natural bridge from fusion methods that output only
// marginals.
func IndependentJoint(marginals []float64) (*Joint, error) { return dist.Independent(marginals) }

// Selection and refinement (internal/core).
type (
	// Selector chooses which facts to ask the crowd.
	Selector = core.Selector
	// GreedyOptions configures the approximation selector (pruning,
	// preprocessing).
	GreedyOptions = core.GreedyOptions
	// Engine runs the select-ask-merge loop of the paper's Figure 1.
	Engine = core.Engine
	// Result is an engine run's outcome: posterior joint and trace.
	Result = core.Result
	// RoundStats is one round of an engine trace.
	RoundStats = core.RoundStats
	// AnswerProvider supplies crowd answers; satisfied by the simulator
	// and the platform.
	AnswerProvider = core.AnswerProvider
	// QuerySelector is the Section IV facts-of-interest variant.
	QuerySelector = core.QueryGreedySelector
	// Preprocessed is the precomputed answer joint distribution used by
	// the accelerated selector (Section III-F).
	Preprocessed = core.Preprocessed
	// SelectorKind names the selection strategies in experiment configs.
	SelectorKind = core.SelectorKind
)

// Selector kinds for experiment configs.
const (
	SelOPT         = core.SelOPT
	SelApprox      = core.SelApprox
	SelApproxPrune = core.SelApproxPrune
	SelApproxPre   = core.SelApproxPre
	SelApproxFull  = core.SelApproxFull
	SelRandom      = core.SelRandom
)

// NewOptSelector returns the exact brute-force selector (exponential in k).
func NewOptSelector() Selector { return core.OptSelector{} }

// NewGreedySelector returns the (1-1/e) greedy selector with the given
// options.
func NewGreedySelector(opts GreedyOptions) Selector {
	return &core.GreedySelector{Options: opts}
}

// NewRandomSelector returns the random baseline, seeded deterministically.
func NewRandomSelector(seed int64) Selector { return core.NewRandom(seed) }

// NewQuerySelector returns the query-based greedy selector for the given
// facts of interest.
func NewQuerySelector(factsOfInterest []int) *QuerySelector {
	return &core.QueryGreedySelector{FOI: factsOfInterest}
}

// TaskEntropy returns H(T), the entropy of the crowd-answer distribution
// for the given task set — the selection objective of the paper.
func TaskEntropy(j *Joint, tasks []int, pc float64) (float64, error) {
	return core.TaskEntropy(j, tasks, pc)
}

// UtilityGain returns ΔQ = H(T) - |T|·H(Crowd), the expected utility
// improvement of asking the task set.
func UtilityGain(j *Joint, tasks []int, pc float64) (float64, error) {
	return core.UtilityGain(j, tasks, pc)
}

// MergeAnswers performs the Bayesian update of the output distribution
// given crowd answers (Equation 3).
func MergeAnswers(j *Joint, tasks []int, answers []bool, pc float64) (*Joint, error) {
	return core.MergeAnswers(j, tasks, answers, pc)
}

// Preprocess computes the answer joint distribution (Section III-F) for
// repeated accelerated evaluations.
func Preprocess(j *Joint, pc float64) (*Preprocessed, error) { return core.Preprocess(j, pc) }

// Crowd model (internal/crowd, internal/platform).
type (
	// CrowdModel is the shared-accuracy crowd of Definition 2.
	CrowdModel = crowd.Model
	// CrowdSimulator produces answers against a hidden ground truth.
	CrowdSimulator = crowd.Simulator
	// Worker is one crowd member with individual accuracy.
	Worker = crowd.Worker
	// WorkerPool is a set of workers tasks are assigned to.
	WorkerPool = crowd.Pool
	// Platform is the gMission-style round-based platform simulator. It
	// answers each round's tasks one after another, each from an RNG
	// seeded by the platform seed and the task's sequence number.
	Platform = platform.Platform
	// PlatformConfig configures the platform simulator.
	PlatformConfig = platform.Config
)

// NewCrowdSimulator builds a deterministic simulated crowd with the given
// hidden truth and accuracy.
func NewCrowdSimulator(truth World, pc float64, seed int64) (*CrowdSimulator, error) {
	return crowd.NewSimulator(truth, pc, seed)
}

// NewWorkerPool builds a pool of size workers with accuracies drawn
// uniformly from [lo, hi].
func NewWorkerPool(size int, lo, hi float64, seed int64) (*WorkerPool, error) {
	return crowd.RandomPool(size, lo, hi, seed)
}

// NewPlatform builds a simulated crowdsourcing platform.
func NewPlatform(cfg PlatformConfig) (*Platform, error) { return platform.New(cfg) }

// EstimateCrowdAccuracy estimates Pc from gold sample tasks, the paper's
// recommended pre-test.
func EstimateCrowdAccuracy(gold, answers []bool) (float64, error) {
	return crowd.EstimatePc(gold, answers)
}

// EM estimation of per-worker accuracy without gold labels (Dawid-Skene
// style), from a redundant answer log.
type (
	// CrowdAnswer is one recorded worker judgment.
	CrowdAnswer = crowd.Answer
	// EMEstimate holds per-worker accuracies and per-task posteriors.
	EMEstimate = crowd.EMEstimate
	// EMOptions tunes the estimator.
	EMOptions = crowd.EMOptions
)

// ErrClampOrder is returned by both worker-model estimators for options
// whose ClampLo exceeds their ClampHi once the defaults are applied.
var ErrClampOrder = crowd.ErrClampOrder

// EstimateWorkerAccuracies runs EM over a redundant answer log, returning
// per-worker accuracy estimates and per-task truth posteriors with no gold
// labels required.
func EstimateWorkerAccuracies(answers []CrowdAnswer, opts EMOptions) (*EMEstimate, error) {
	return crowd.EstimateEM(answers, opts)
}

// ConfusionEstimate is the asymmetric (sensitivity/specificity) worker
// model — full Dawid-Skene.
type ConfusionEstimate = crowd.ConfusionEstimate

// EstimateWorkerConfusion runs the full Dawid-Skene EM: per-worker
// sensitivity and specificity, catching answer-biased workers the
// symmetric model cannot represent.
func EstimateWorkerConfusion(answers []CrowdAnswer, opts EMOptions) (*ConfusionEstimate, error) {
	return crowd.EstimateDawidSkene(answers, opts)
}

// Machine-only fusion (internal/fusion).
type (
	// Claim is one source's assertion about an object.
	Claim = fusion.Claim
	// Truth is a fused (object, value, confidence) triple.
	Truth = fusion.Truth
	// FusionMethod is a machine-only fusion algorithm.
	FusionMethod = fusion.Method
)

// Fusion initializers.
func NewMajorityVote() FusionMethod { return fusion.MajorityVote{} }
func NewCRH() FusionMethod          { return fusion.NewCRH() }
func NewTruthFinder() FusionMethod  { return fusion.NewTruthFinder() }
func NewAccuVote() FusionMethod     { return fusion.NewAccuVote() }

// NewSemiSupervised returns the semi-supervised truth-discovery baseline
// (Yin & Tan 2011 style): labels maps (object, value) pairs to expert
// judgments that anchor the iteration.
func NewSemiSupervised(labels map[[2]string]bool) FusionMethod {
	return fusion.NewSemiSupervised(labels)
}

// Book dataset and instances (internal/bookdata, internal/worlds).
type (
	// BookDataset is the synthetic Book benchmark.
	BookDataset = bookdata.Dataset
	// BookConfig parameterizes dataset generation.
	BookConfig = bookdata.Config
	// Instance is one book's CrowdFusion problem (facts, prior joint,
	// gold labels).
	Instance = worlds.Instance
	// WorldOptions tunes joint construction from claims.
	WorldOptions = worlds.Options
)

// DefaultBookConfig mirrors the paper's dataset scale (100 books).
func DefaultBookConfig() BookConfig { return bookdata.DefaultConfig() }

// GenerateBooks builds a deterministic synthetic Book dataset.
func GenerateBooks(cfg BookConfig) (*BookDataset, error) { return bookdata.Generate(cfg) }

// DefaultWorldOptions returns the default joint-construction options.
func DefaultWorldOptions() WorldOptions { return worlds.DefaultOptions() }

// BuildInstances converts a dataset plus fused confidences into per-book
// CrowdFusion instances.
func BuildInstances(d *BookDataset, truths []Truth, opts WorldOptions) ([]*Instance, error) {
	return worlds.BuildAll(d, truths, opts)
}

// Evaluation (internal/eval).
type (
	// Metrics is a confusion matrix with precision/recall/F1.
	Metrics = eval.Metrics
	// SweepConfig configures a quality-vs-budget run (Figures 2-4).
	SweepConfig = eval.SweepConfig
	// SweepResult is a quality curve.
	SweepResult = eval.SweepResult
	// TracePoint is one point of a quality curve.
	TracePoint = eval.TracePoint
	// TimingConfig configures the Table V selection-time sweep.
	TimingConfig = eval.TimingConfig
	// TimingResult is the Table V grid.
	TimingResult = eval.TimingResult
	// ErrorBreakdown is the Section V-D residual-error taxonomy.
	ErrorBreakdown = eval.ErrorBreakdown
)

// RunSweep executes a quality-vs-budget experiment.
func RunSweep(cfg SweepConfig) (*SweepResult, error) { return eval.RunSweep(cfg) }

// RunTimings executes the Table V selection-time experiment.
func RunTimings(cfg TimingConfig) (*TimingResult, error) { return eval.RunTimings(cfg) }

// Extensions beyond the paper's per-book protocol.
type (
	// AllocationConfig configures corpus-wide budget allocation (the
	// Section V-D suggestion).
	AllocationConfig = eval.AllocationConfig
	// AllocationResult reports where the global budget went.
	AllocationResult = eval.AllocationResult
	// QuerySweepConfig configures the Section IV facts-of-interest
	// comparison.
	QuerySweepConfig = eval.QuerySweepConfig
	// QuerySweepResult is the FOI-restricted quality curve.
	QuerySweepResult = eval.QuerySweepResult
)

// RunAllocation distributes one global budget across all instances,
// always funding the single task with the highest net utility gain.
func RunAllocation(cfg AllocationConfig) (*AllocationResult, error) {
	return eval.RunAllocation(cfg)
}

// RunQuerySweep refines instances while scoring only sampled facts of
// interest, comparing the Section IV selector against the general one.
func RunQuerySweep(cfg QuerySweepConfig) (*QuerySweepResult, error) {
	return eval.RunQuerySweep(cfg)
}

// Calibration is a reliability report over posterior marginals.
type Calibration = quality.Calibration

// CalibrationReport bins posterior marginals against gold labels and
// reports expected calibration error and Brier score.
func CalibrationReport(instances []*Instance, joints []*Joint, nBins int) (*Calibration, error) {
	return eval.CalibrationReport(instances, joints, nBins)
}

// ScoreJudgments compares judgments against gold labels.
func ScoreJudgments(judgments, gold []bool) (Metrics, error) { return eval.Score(judgments, gold) }

// PriorQuality scores the machine-only prior across instances.
func PriorQuality(instances []*Instance) (float64, Metrics, error) {
	return eval.PriorQuality(instances)
}

// Pipeline bundles the full end-to-end flow: generate (or accept) a
// dataset, fuse with a machine-only method, build instances, and refine
// with the crowd under a budget.
type Pipeline struct {
	Dataset  *BookDataset
	Fusion   FusionMethod
	Options  WorldOptions
	Selector SelectorKind
	K        int
	Budget   int
	Pc       float64
	// UseDifficulty routes Section V-D statement difficulty into the
	// simulated crowd.
	UseDifficulty bool
	Seed          int64
}

// PipelineResult reports the machine-only baseline and the refined result.
type PipelineResult struct {
	Instances []*Instance
	Prior     Metrics
	PriorU    float64
	Sweep     *SweepResult
}

// Run executes the pipeline.
func (p Pipeline) Run() (*PipelineResult, error) {
	truths, err := p.Fusion.Fuse(p.Dataset.Claims)
	if err != nil {
		return nil, err
	}
	instances, err := worlds.BuildAll(p.Dataset, truths, p.Options)
	if err != nil {
		return nil, err
	}
	priorU, prior, err := eval.PriorQuality(instances)
	if err != nil {
		return nil, err
	}
	sweep, err := eval.RunSweep(eval.SweepConfig{
		Instances:     instances,
		Selector:      p.Selector,
		K:             p.K,
		Budget:        p.Budget,
		Pc:            p.Pc,
		UseDifficulty: p.UseDifficulty,
		Seed:          p.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &PipelineResult{
		Instances: instances,
		Prior:     prior,
		PriorU:    priorU,
		Sweep:     sweep,
	}, nil
}
