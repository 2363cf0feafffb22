package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"crowdfusion/internal/bookdata"
	"crowdfusion/internal/core"
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/eval"
	"crowdfusion/internal/store"
	"crowdfusion/internal/trace"
	"crowdfusion/internal/worlds"
)

// State machine errors, mapped to HTTP statuses by the server layer.
var (
	// ErrVersionConflict is returned when an answer set references a
	// posterior version that is neither current nor a recognized retry —
	// the client lost a race with another merge and must re-select.
	ErrVersionConflict = errors.New("service: answer set references a stale posterior version; re-select")
	// ErrBudgetExhausted is returned when a merge would spend more tasks
	// than the session budget has left.
	ErrBudgetExhausted = errors.New("service: session budget exhausted")
	// ErrStore is returned when the session store fails: the merge was NOT
	// applied (persistence happens before the in-memory commit, so a
	// client seeing this error can safely retry).
	ErrStore = errors.New("service: session store failure")
	// ErrNoPendingBatch rejects a partial answer when no selection is
	// outstanding at the current version: there is no batch to answer.
	ErrNoPendingBatch = errors.New("service: no batch pending at the current version; select first")
	// ErrNotInBatch rejects a partial answer naming a task outside the
	// pending selected batch.
	ErrNotInBatch = errors.New("service: partial answer names a task outside the pending batch")
	// ErrAnswerConflict rejects a judgment contradicting one already
	// journaled for the same task in the pending batch.
	ErrAnswerConflict = errors.New("service: judgment contradicts one already recorded for this task")
)

// errSessionRetired reports that this Session instance was evicted,
// unloaded, or deleted after the caller obtained its pointer. Handlers
// catch it and re-resolve the ID through the manager (one retry); it never
// reaches the wire unless the session retires twice in a row, where it
// maps to a retryable 503.
var errSessionRetired = errors.New("service: session instance retired; re-resolve")

// Session is one refinement loop: a posterior distribution refined round by
// round through the select → await → merge state machine.
//
// Its refinement state changes only through one transition function over
// store.Op: stepLocked computes an op's effect, applyLocked commits it.
// Live Merge and Select build the op, step it, persist it, then apply it;
// Create and crash recovery both build the session from a store.Record and
// apply its ops in journal order (restoreSession). The posterior after
// round v is a deterministic function of the prior and the answer sets
// merged so far (Equation 3), so replay recomputes live state bit for bit.
//
// Every operation runs under one per-session mutex, so concurrent requests
// against the same session serialize: two merges can never interleave, a
// select always sees a complete posterior, and the version counter names
// each posterior unambiguously. Cross-session requests share nothing and
// run fully in parallel.
type Session struct {
	id       string
	selector core.Selector
	selName  string
	pc       float64
	k        int
	budget   int

	mu        sync.Mutex
	posterior *dist.Joint
	version   int  // number of merges applied
	spent     int  // tasks asked (accounted at merge time)
	done      bool // latched when a selection finds nothing uncertain
	rounds    []RoundInfo

	// sel caches the last selection; valid while selVersion matches the
	// current version and the requested k matches, so clients that retry
	// a select (or poll it from several workers) get one batch per
	// posterior instead of recomputing the greedy sweep.
	sel        *SelectResponse
	selVersion int
	selK       int

	// merges logs applied answer sets by content hash for idempotent
	// replay of retried merges.
	merges map[uint64]*AnswersResponse

	// Worker model state. workerModel names how crowd accuracy enters
	// merging (fixed / em / dawid-skene); anonWorker is the identity that
	// unattributed (legacy-form) judgments are recorded under.
	// observations is every journaled judgment in journal order, each
	// stamped with the version it arrived at.
	workerModel string
	anonWorker  string

	observations []store.Observation
	// workerSens/workerSpec are the smoothed per-worker channel estimates
	// from the last refit: the raw estimator output shrunk toward the
	// configured pc by a Beta prior of strength workerPriorStrength, so a
	// worker with no evidence sits exactly at pc. workerRaw keeps the
	// unsmoothed balanced accuracy for reporting. All nil before the
	// first refit (and always, under the fixed model).
	workerSens map[string]float64
	workerSpec map[string]float64
	workerRaw  map[string]float64
	refits     int

	// sensBuf/specBuf are the reusable per-judgment channel buffers for
	// weighted conditioning: the conditioning kernel consumes them before
	// returning, so they recycle across merges and the weighted path stops
	// allocating its channel vectors per call. Guarded by mu like all
	// session scratch.
	sensBuf []float64
	specBuf []float64

	// onRefit/onWeightedMerge are the metrics hooks (refit latency and
	// weighted-merge count), invoked while holding mu; nil outside a
	// server.
	onRefit         func(time.Duration)
	onWeightedMerge func()

	// Pending-batch ledger for incremental (answer-at-a-time) merging.
	// While pendBatch is non-nil, the selected batch at the current
	// version is being answered one judgment at a time: pendAns holds the
	// judgments received so far, pendTaskH the batch's H(T), and pendPost
	// the PROVISIONAL posterior — the round-start posterior conditioned on
	// the answered prefix in one batch-order pass (see
	// mergePartialLocked). s.posterior never moves until commit, so budget
	// and version advance exactly once.
	pendBatch []int
	pendAns   map[int]bool
	pendTaskH float64
	pendPost  *dist.Joint

	// emit, when set, receives a SessionEvent for every state transition
	// (select, partial, merge, done). It is invoked while HOLDING mu —
	// transitions are published in exactly the order they commit — so the
	// hook must never block (the manager's event hub fans out through
	// bounded non-blocking buffers). Nil for sessions without a manager.
	emit func(ev SessionEvent)

	// tracer, when set, records child spans around select, merge, the
	// partial journal, and every persisted op (whose span duration is
	// dominated by the fsync on durable stores). Nil — direct library use,
	// benchmarks, replay — costs only nil checks on the hot path.
	tracer *trace.Tracer

	// lastAccess is the eviction clock, guarded by mu (updated by every
	// operation through touch).
	lastAccess time.Time

	// retired marks this instance as no longer the session's live one:
	// the manager evicted, unloaded, or deleted it while some handler
	// still held the pointer. Mutating operations refuse with
	// errSessionRetired so the handler re-resolves the ID through the
	// manager — otherwise an orphan instance could commit (and persist!)
	// a merge invisible to the successor instance the map now serves.
	retired bool

	// Persistence. priorRec is the prior exactly as the client sent it
	// (raw, pre-normalization), seed the selector seed, created the
	// creation time — together with the rounds trace they are the
	// session's full durable record. persist, when set, is called with
	// each state transition BEFORE it is committed in memory: a merge is
	// acknowledged only after the store has fsynced it. It is nil for
	// sessions that are not manager-owned (tests, replay).
	priorRec store.Prior
	seed     int64
	created  time.Time
	persist  func(op store.Op) error

	// leaseEpoch is the fencing epoch of the write lease this instance
	// holds, stamped on every persisted op and flushed record so the store
	// can refuse writes from a deposed incarnation with ErrFenced. Set by
	// the manager before the instance is published and immutable after —
	// a new acquisition always builds a new instance. 0 when leasing is
	// disabled.
	leaseEpoch uint64
}

// newSession builds a session; the caller (restoreSession) has validated
// the parameters and constructed the prior.
func newSession(id string, prior *dist.Joint, selector core.Selector, selName string, pc float64, k, budget int, now time.Time) *Session {
	return &Session{
		id:          id,
		selector:    selector,
		selName:     selName,
		pc:          pc,
		k:           k,
		budget:      budget,
		posterior:   prior,
		merges:      make(map[uint64]*AnswersResponse),
		workerModel: WorkerModelFixed,
		anonWorker:  DefaultAnonWorker,
		lastAccess:  now,
		created:     now,
	}
}

// DefaultAnonWorker is the worker identity unattributed judgments are
// recorded under when no -anon-worker override is configured.
const DefaultAnonWorker = "anon"

// workerPriorStrength is the pseudo-count of the Beta prior anchoring
// every worker's accuracy estimate at the session's configured pc. Four
// pseudo-observations mean a fresh worker starts exactly at pc and a
// worker with n judgments sits at (4·pc + n·estimate)/(4 + n) — strong
// enough that a handful of lucky agreements cannot catapult anyone to
// 0.99, weak enough that a planted adversary's estimate crosses below an
// honest worker's within a couple of rounds.
const workerPriorStrength = 4.0

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// touch advances the eviction clock; callers hold mu.
func (s *Session) touch(now time.Time) {
	if now.After(s.lastAccess) {
		s.lastAccess = now
	}
}

// idleSince returns the last access time for TTL eviction.
func (s *Session) idleSince() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastAccess
}

// infoLocked snapshots the client-visible state; callers hold mu. While a
// partial answer sequence is in flight the distribution fields reflect the
// provisional posterior, Version stays at the committed version, and
// Pending describes the ledger.
func (s *Session) infoLocked(withRounds bool) SessionInfo {
	post := s.posterior
	if s.pendPost != nil {
		post = s.pendPost
	}
	info := SessionInfo{
		ID:          s.id,
		Version:     s.version,
		N:           post.N(),
		SupportSize: post.SupportSize(),
		Marginals:   append([]float64(nil), post.Marginals()...),
		Entropy:     post.Entropy(),
		Utility:     post.Utility(),
		Spent:       s.spent,
		Budget:      s.budget,
		K:           s.k,
		Pc:          s.pc,
		Selector:    s.selName,
		WorkerModel: s.workerModel,
		Done:        s.done || s.spent >= s.budget,
	}
	if s.pendBatch != nil {
		p := &PendingInfo{
			Version:   s.version,
			Tasks:     append([]int(nil), s.pendBatch...),
			Answered:  []AnswerEvent{},
			Remaining: []int{},
		}
		for _, t := range s.pendBatch {
			if a, ok := s.pendAns[t]; ok {
				p.Answered = append(p.Answered, AnswerEvent{Task: t, Answer: a})
			} else {
				p.Remaining = append(p.Remaining, t)
			}
		}
		info.Pending = p
	}
	if withRounds {
		info.Rounds = append([]RoundInfo(nil), s.rounds...)
	}
	return info
}

// emitLocked publishes a state-transition event; callers hold mu. mutate,
// when non-nil, decorates the event (select batches, redirect owners).
// The event is stamped with the trace id of the request that caused the
// transition, so stream consumers can join a merge to its request chain.
func (s *Session) emitLocked(ctx context.Context, typ string, mutate func(*SessionEvent)) {
	if s.emit == nil {
		return
	}
	ev := SessionEvent{Type: typ, SessionInfo: s.infoLocked(false), TraceID: trace.TraceIDFromContext(ctx)}
	if mutate != nil {
		mutate(&ev)
	}
	s.emit(ev)
}

// persistOp runs the persist hook under a span so the op's durability cost
// (the fsync, on durable stores) shows up in the trace. Callers hold mu.
func (s *Session) persistOp(ctx context.Context, op store.Op) error {
	_, sp := s.tracer.Start(ctx, "persist.append")
	sp.SetAttr("session", s.id)
	sp.SetAttr("kind", string(op.Kind))
	sp.SetAttr("version", op.Version)
	err := s.persist(op)
	sp.SetError(err)
	sp.End()
	return err
}

// withSnapshot runs f with the current client-visible state while holding
// the session mutex. Events are published under this same mutex, so
// nothing can be published between the snapshot f sees and whatever
// registration f performs — the foundation of gapless SSE subscription.
func (s *Session) withSnapshot(now time.Time, f func(info SessionInfo)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return errSessionRetired
	}
	s.touch(now)
	f(s.infoLocked(false))
	return nil
}

// peekInfo returns the state WITHOUT advancing the TTL clock — listing a
// node's sessions must not keep every listed session resident forever.
func (s *Session) peekInfo() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked(false)
}

// Info returns the session state, with the per-round trace when withRounds
// is set.
func (s *Session) Info(now time.Time, withRounds bool) SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch(now)
	return s.infoLocked(withRounds)
}

// selectIntent is the frozen input of one greedy sweep, captured under the
// session mutex by selectPrepare and consumed outside it: the posterior is
// immutable, so the sweep itself needs no lock and a merge never waits
// behind one.
type selectIntent struct {
	joint    *dist.Joint
	selector core.Selector
	k        int
	pc       float64
	version  int
}

// selectPrepare is the under-lock front half of a select: fast paths
// (pinned pending batch, done latch, cache hit) return a response
// directly; otherwise it freezes the sweep inputs into a selectIntent for
// the caller to compute against and hand back to selectComplete.
func (s *Session) selectPrepare(now time.Time, kOverride int) (resp *SelectResponse, cached bool, intent selectIntent, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return nil, false, intent, errSessionRetired
	}
	s.touch(now)

	if s.pendBatch != nil {
		// An incremental answer sequence is in flight: the pending batch
		// IS the outstanding selection. It stays pinned (even across a k
		// override) until the ledger commits — swapping batches mid-answer
		// would orphan journaled judgments.
		pinned := SelectResponse{
			Tasks:       append([]int(nil), s.pendBatch...),
			TaskEntropy: s.pendTaskH,
			Version:     s.version,
			Cached:      true,
		}
		return &pinned, true, intent, nil
	}

	k := s.k
	if kOverride > 0 {
		k = kOverride
	}
	if remaining := s.budget - s.spent; k > remaining {
		k = remaining
	}
	if n := s.posterior.N(); k > n {
		k = n
	}
	if k <= 0 || s.done {
		return &SelectResponse{Tasks: []int{}, Version: s.version, Done: true}, false, intent, nil
	}
	if s.sel != nil && s.selVersion == s.version && s.selK == k {
		hit := *s.sel
		hit.Cached = true
		return &hit, true, intent, nil
	}
	return nil, false, selectIntent{
		joint:    s.posterior,
		selector: s.selector,
		k:        k,
		pc:       s.pc,
		version:  s.version,
	}, nil
}

// selectComplete is the under-lock back half: it re-validates the intent
// against the current state and commits the sweep's result. stale means
// the posterior moved (or a partial sequence started) while the sweep ran
// off-lock — the result is discarded and the caller re-prepares. When a
// concurrent request already cached an identical selection for the same
// (version, k), that cache is served instead (the sweep is deterministic,
// so the results are interchangeable).
func (s *Session) selectComplete(ctx context.Context, now time.Time, intent selectIntent, tasks []int, selErr error) (resp *SelectResponse, cached, stale bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return nil, false, false, errSessionRetired
	}
	if selErr != nil {
		return nil, false, false, fmt.Errorf("service: selection: %w", selErr)
	}
	if s.version != intent.version || s.pendBatch != nil || s.done {
		return nil, false, true, nil
	}
	if s.sel != nil && s.selVersion == s.version && s.selK == intent.k {
		hit := *s.sel
		hit.Cached = true
		return &hit, true, false, nil
	}

	resp = &SelectResponse{Tasks: tasks, Version: s.version}
	if len(tasks) == 0 {
		// Theorem 2: no remaining task nets positive utility. Latch so
		// later selects and Info report completion without re-sweeping.
		resp.Done = true
		op := store.Op{Kind: store.OpDone, Version: s.version, Epoch: s.leaseEpoch, Time: now}
		if s.persist != nil {
			// Best-effort: the latch is derived state — a restarted
			// daemon re-derives it with one re-sweep — so a store
			// hiccup must not fail the read. The persist hook records
			// the failure in the store metrics.
			_ = s.persistOp(ctx, op)
		}
		s.applyLocked(ctx, transition{op: op})
	} else {
		h, err := core.TaskEntropy(s.posterior, tasks, s.pc)
		if err != nil {
			return nil, false, false, err
		}
		resp.TaskEntropy = h
	}
	s.sel = resp
	s.selVersion = s.version
	s.selK = intent.k
	if len(tasks) > 0 {
		s.emitLocked(ctx, EventSelect, func(ev *SessionEvent) {
			ev.Tasks = append([]int(nil), tasks...)
		})
	}
	return resp, false, false, nil
}

// Select returns the next task batch against the current posterior. kOverride
// > 0 replaces the session's per-round k for this batch. The batch size is
// clamped to the remaining budget; an empty batch (Done=true) means the
// budget is spent or nothing uncertain remains.
//
// The selection is cached keyed on (posterior version, effective k):
// repeating the call without an intervening merge returns the identical
// batch with Cached=true instead of re-running the greedy sweep.
//
// The greedy sweep itself runs outside the session mutex against the
// immutable posterior the intent froze; a merge landing mid-sweep moves
// the version and the result is discarded and recomputed, so a committed
// selection always matches its response's Version.
func (s *Session) Select(ctx context.Context, now time.Time, kOverride int) (resp *SelectResponse, cached bool, err error) {
	if s.tracer != nil {
		var sp *trace.Span
		ctx, sp = s.tracer.Start(ctx, "session.select")
		sp.SetAttr("session", s.id)
		defer func() {
			if resp != nil {
				sp.SetAttr("version", resp.Version)
				sp.SetAttr("tasks", len(resp.Tasks))
			}
			sp.SetAttr("cached", cached)
			sp.SetError(err)
			sp.End()
		}()
	}
	for {
		resp, cached, intent, err := s.selectPrepare(now, kOverride)
		if resp != nil || err != nil {
			return resp, cached, err
		}
		tasks, selErr := intent.selector.Select(intent.joint, intent.k, intent.pc)
		done, hit, stale, err := s.selectComplete(ctx, now, intent, tasks, selErr)
		if stale {
			continue
		}
		return done, hit, err
	}
}

// persistError maps a persist failure for the caller: a fenced write
// surfaces as *FencedError — the session has a new owner, the handler
// retires this instance and redirects — while anything else is ErrStore
// (the op was NOT applied; persistence happens before the in-memory
// commit, so the client can safely retry).
func persistError(id string, err error) error {
	var fe *store.FencedError
	if errors.As(err, &fe) {
		return &FencedError{ID: id, Owner: fe.Lease.Owner}
	}
	return fmt.Errorf("%w: %v", ErrStore, err)
}

// answerSetHash fingerprints an answer set (tasks, answers, version) for
// the idempotency log. FNV-1a over the canonical byte rendering; collisions
// would only conflate two retries into one replay, never corrupt state.
func answerSetHash(version int, tasks []int, answers []bool) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(version))
	for i, t := range tasks {
		put(uint64(t))
		if answers[i] {
			put(1)
		} else {
			put(0)
		}
	}
	return h.Sum64()
}

// Merge applies a crowd answer set to the posterior (Equation 3) and
// advances the version. It is idempotent by answer-set hash: an answer set
// that was already applied — same tasks, same answers, same referenced
// version — returns the recorded response with Merged=false instead of
// double-counting budget or conditioning twice, which makes network
// retries of POST …/answers safe.
//
// Version semantics: when the request carries a version it must either be
// the current one (the merge applies) or match an already-applied set (the
// recorded response replays); anything else is ErrVersionConflict. When
// the version is omitted, a duplicate of any applied answer set is treated
// as a retry; clients that intend to submit an identical answer set twice
// (possible when the selector re-picks the same tasks and the crowd answers
// identically) must thread the version through to disambiguate.
//
// Partial requests (and any request arriving while a partial sequence is
// in flight) take the incremental path: judgments accumulate against the
// pending selected batch, each journaled through the store before it is
// acknowledged, and the batch commits — spending budget and advancing the
// version exactly once — when the ledger covers the batch. Retried
// prefixes replay idempotently, before and after the commit.
func (s *Session) Merge(ctx context.Context, now time.Time, req *AnswersRequest) (resp *AnswersResponse, err error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	tasks, answers, workers, sources, attributed := req.flatten(s.anonWorker)
	if s.tracer != nil {
		var sp *trace.Span
		ctx, sp = s.tracer.Start(ctx, "session.merge")
		sp.SetAttr("session", s.id)
		sp.SetAttr("tasks", len(tasks))
		sp.SetAttr("partial", req.Partial)
		sp.SetAttr("attributed", attributed)
		defer func() {
			if resp != nil {
				sp.SetAttr("merged", resp.Merged)
				sp.SetAttr("version", resp.Version)
			}
			sp.SetError(err)
			sp.End()
		}()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return nil, errSessionRetired
	}
	s.touch(now)
	// Under em/dawid-skene every judgment is an observation, so legacy
	// parallel-array submissions are attributed to the anonymous worker;
	// under fixed, unattributed submissions stay worker-less (and journal
	// no observation — their durable log is byte-identical to before
	// worker models existed).
	if workers == nil && s.workerModel != WorkerModelFixed {
		workers = make([]string, len(tasks))
		for i := range workers {
			workers[i] = s.anonWorker
		}
	}

	if req.Version != nil {
		if resp, ok, err := s.replayLoggedLocked(*req.Version, req, tasks, answers, workers, attributed); ok {
			return resp, err
		}
	}
	if req.Partial || s.pendBatch != nil {
		return s.mergePartialLocked(ctx, now, req, tasks, answers, workers, sources, attributed)
	}
	if req.Version != nil {
		if *req.Version != s.version {
			return nil, ErrVersionConflict
		}
	} else {
		// No version: scan for a content match against any applied set.
		for v := 0; v < s.version; v++ {
			if resp, ok, err := s.replayLoggedLocked(v, req, tasks, answers, workers, attributed); ok {
				return resp, err
			}
		}
	}
	return s.commitLocked(ctx, now, s.observeOpsLocked(now, tasks, answers, workers, sources), tasks, answers)
}

// replayLoggedLocked serves a retry of the answer set committed from
// version v out of the idempotency log; ok=false when no such set was
// committed. The replay reports Partial as the retrying request set it: the
// flag says whether this request joined an incremental sequence, which the
// log cannot know.
func (s *Session) replayLoggedLocked(v int, req *AnswersRequest, tasks []int, answers []bool, workers []string, attributed bool) (resp *AnswersResponse, ok bool, err error) {
	prev, ok := s.merges[answerSetHash(v, tasks, answers)]
	if !ok {
		return nil, false, nil
	}
	// A retry carrying explicit judgments must keep the attribution the
	// commit derived; the log at v is frozen once v commits, so deriving it
	// again gives the committed one. Legacy-form retries carry no
	// attribution to contradict.
	if attributed {
		if rec := s.attributionLocked(v, tasks, answers, nil); rec != nil && !slices.Equal(rec, workers) {
			return nil, true, fmt.Errorf("%w: committed attribution %q", ErrAttributionConflict, strings.Join(rec, ","))
		}
	}
	replay := *prev
	replay.Merged = false
	replay.Partial = req.Partial
	return &replay, true, nil
}

// observeOpsLocked returns the observe op journaling a judgment set ahead
// of the merge or partial op consuming it. It returns none for
// unattributed judgments on a fixed session, and none for a retry whose
// judgments already end the log at this version (its observe op landed,
// its merge op did not), so a retry cannot double-record.
func (s *Session) observeOpsLocked(now time.Time, tasks []int, answers []bool, workers, sources []string) []store.Op {
	if workers == nil || s.observationsTailMatchLocked(tasks, answers, workers) {
		return nil
	}
	op := store.Op{
		Kind:    store.OpObserve,
		Version: s.version,
		Seq:     len(s.observations),
		Tasks:   append([]int(nil), tasks...),
		Answers: append([]bool(nil), answers...),
		Workers: append([]string(nil), workers...),
		Epoch:   s.leaseEpoch,
		Time:    now,
	}
	if sources != nil {
		op.Sources = append([]string(nil), sources...)
	}
	return []store.Op{op}
}

// observationsTailMatchLocked reports whether the observation log already
// ends with exactly this judgment set at the current version.
func (s *Session) observationsTailMatchLocked(tasks []int, answers []bool, workers []string) bool {
	n := len(tasks)
	if len(s.observations) < n {
		return false
	}
	tail := s.observations[len(s.observations)-n:]
	for i, o := range tail {
		if o.Version != s.version || o.Task != tasks[i] || o.Answer != answers[i] || o.Worker != workers[i] {
			return false
		}
	}
	return true
}

// observedLocked returns the latest observation journaled for task at
// version v, reading backwards from the log tail: first through extra (the
// observations of an observe op about to be journaled ahead of the op being
// stepped), then through the log itself. A retried observe op lands after
// the one it retries, so the latest entry is the one a commit consumed.
func (s *Session) observedLocked(v, task int, extra []store.Observation) (store.Observation, bool) {
	for i := len(extra) - 1; i >= 0; i-- {
		if extra[i].Task == task {
			return extra[i], true
		}
	}
	for i := len(s.observations) - 1; i >= 0 && s.observations[i].Version >= v; i-- {
		if o := s.observations[i]; o.Version == v && o.Task == task {
			return o, true
		}
	}
	return store.Observation{}, false
}

// attributionLocked derives the worker attribution of a judgment set at
// version v from the observation log: each task takes the worker of the
// latest observation journaled for it at v when that observation carries
// the same answer, the anonymous worker otherwise. It is nil when the log
// attributes none of the judgments — unattributed judgments on a fixed
// session. Live merges and replay both derive attribution here, so the
// conditioning channels and the idempotency log's attribution can never
// depend on which of the two built the state.
func (s *Session) attributionLocked(v int, tasks []int, answers []bool, extra []store.Observation) []string {
	var workers []string
	for i, t := range tasks {
		o, ok := s.observedLocked(v, t, extra)
		if !ok || o.Answer != answers[i] {
			continue
		}
		if workers == nil {
			workers = make([]string, len(tasks))
			for j := range workers {
				workers[j] = s.anonWorker
			}
		}
		workers[i] = o.Worker
	}
	return workers
}

// workerChannelLocked returns the smoothed (sensitivity, specificity)
// channel for a worker, falling back to the session's scalar pc for
// workers the last refit did not cover (including everyone, before the
// first refit).
func (s *Session) workerChannelLocked(w string) (sens, spec float64) {
	if sn, ok := s.workerSens[w]; ok {
		return sn, s.workerSpec[w]
	}
	return s.pc, s.pc
}

// conditionLocked conditions the committed posterior on one judgment set.
// Fixed sessions — and em/dawid-skene sessions before their first refit —
// take the scalar-pc path; refit sessions condition each judgment on its
// worker's current smoothed channel. The pre-refit equivalence is exact,
// not approximate: with every estimate pinned at pc the weighted
// conditioning delegates to the scalar kernel inside dist, so a fresh
// em session is bit-identical to a fixed one until evidence arrives.
func (s *Session) conditionLocked(tasks []int, answers []bool, workers []string) (*dist.Joint, error) {
	if s.workerModel == WorkerModelFixed || s.refits == 0 || workers == nil {
		return core.MergeAnswers(s.posterior, tasks, answers, s.pc)
	}
	// The conditioning kernel reads the channel vectors before returning
	// and the posterior retains no reference to them, so the session-owned
	// buffers recycle across merges.
	sens := s.sensBuf[:0]
	spec := s.specBuf[:0]
	for _, w := range workers {
		sn, sp := s.workerChannelLocked(w)
		sens = append(sens, sn)
		spec = append(spec, sp)
	}
	s.sensBuf, s.specBuf = sens, spec
	if s.onWeightedMerge != nil {
		s.onWeightedMerge()
	}
	return core.MergeAnswersWeighted(s.posterior, tasks, answers, sens, spec)
}

// refitLocked re-estimates every worker's accuracy from the accumulated
// observation log; callers hold mu and have just committed a merge. The
// raw estimates (symmetric EM or Dawid–Skene, seeded from the session
// seed so recovery replays the identical arithmetic) are shrunk toward
// the configured pc by a Beta prior of strength workerPriorStrength. An
// estimator failure keeps the previous estimates — the merge that
// triggered the refit is already committed and must not be unwound.
func (s *Session) refitLocked(ctx context.Context) {
	if s.workerModel != WorkerModelEM && s.workerModel != WorkerModelDawidSkene {
		return
	}
	if len(s.observations) == 0 {
		return
	}
	start := time.Now()
	answers := make([]crowd.Answer, len(s.observations))
	support := make(map[string]int)
	for i, o := range s.observations {
		answers[i] = crowd.Answer{Fact: o.Task, Value: o.Answer, Worker: o.Worker}
		support[o.Worker]++
	}
	var rawSens, rawSpec map[string]float64
	opts := crowd.EMOptions{Seed: s.seed}
	switch s.workerModel {
	case WorkerModelEM:
		est, err := crowd.EstimateEM(answers, opts)
		if err != nil {
			return
		}
		rawSens, rawSpec = est.WorkerAccuracy, est.WorkerAccuracy
	case WorkerModelDawidSkene:
		est, err := crowd.EstimateDawidSkene(answers, opts)
		if err != nil {
			return
		}
		rawSens, rawSpec = est.Sensitivity, est.Specificity
	}
	s.workerSens = make(map[string]float64, len(rawSens))
	s.workerSpec = make(map[string]float64, len(rawSens))
	s.workerRaw = make(map[string]float64, len(rawSens))
	for w, sn := range rawSens {
		n := float64(support[w])
		sp := rawSpec[w]
		s.workerSens[w] = (workerPriorStrength*s.pc + n*sn) / (workerPriorStrength + n)
		s.workerSpec[w] = (workerPriorStrength*s.pc + n*sp) / (workerPriorStrength + n)
		s.workerRaw[w] = (sn + sp) / 2
	}
	s.refits++
	if s.onRefit != nil {
		s.onRefit(time.Since(start))
	}
	s.emitLocked(ctx, EventRefit, func(ev *SessionEvent) { ev.Refits = s.refits })
}

// transition is one op's effect, computed by stepLocked and committed by
// applyLocked. The split lets the live path refuse an op — an answer set
// the posterior rules out, a spent budget, a task outside the batch —
// before anything is journaled, while replay runs the same computation.
type transition struct {
	op    store.Op
	obs   []store.Observation // an observe op's observations
	post  *dist.Joint         // a merge's next posterior, a partial's provisional one
	taskH float64             // H(T) of a merge's answer set or a partial's batch
}

// stepLocked computes op's transition against the current state, changing
// nothing; callers hold mu. extra holds the observations the live path is
// about to journal ahead of op (on replay they are already applied), so
// attribution reads the same log either way.
func (s *Session) stepLocked(op store.Op, extra []store.Observation) (transition, error) {
	t := transition{op: op}
	if op.Version != s.version {
		return t, fmt.Errorf("service: %s op at version %d, session at %d", op.Kind, op.Version, s.version)
	}
	if len(op.Answers) != len(op.Tasks) {
		return t, fmt.Errorf("service: %s op has %d tasks but %d answers", op.Kind, len(op.Tasks), len(op.Answers))
	}
	switch op.Kind {
	case store.OpObserve:
		if len(op.Workers) != len(op.Tasks) || (len(op.Sources) != 0 && len(op.Sources) != len(op.Tasks)) {
			return t, fmt.Errorf("service: observe op has %d tasks, %d workers, %d sources",
				len(op.Tasks), len(op.Workers), len(op.Sources))
		}
		t.obs = make([]store.Observation, len(op.Tasks))
		for i, task := range op.Tasks {
			t.obs[i] = store.Observation{
				Task:    task,
				Answer:  op.Answers[i],
				Worker:  op.Workers[i],
				Version: op.Version,
				Time:    op.Time,
			}
			if len(op.Sources) != 0 {
				t.obs[i].Source = op.Sources[i]
			}
		}
	case store.OpPartial, store.OpMerge:
		// A merge conditions on its answer set; a partial conditions on the
		// ledger prefix it extends, and its batch is the one it pins.
		batch, tasks, answers := op.Tasks, op.Tasks, op.Answers
		if op.Kind == store.OpPartial {
			if batch = s.pendBatch; batch == nil {
				batch = op.Batch
			}
			for _, task := range op.Tasks {
				if !slices.Contains(batch, task) {
					return t, fmt.Errorf("%w: task %d", ErrNotInBatch, task)
				}
			}
			// The judgment completing a batch is journaled as its merge.
			if tasks, answers = s.ledgerPrefixLocked(batch, op.Tasks, op.Answers); len(tasks) == len(batch) {
				return t, fmt.Errorf("service: partial op completes its batch of %d", len(batch))
			}
		} else if s.spent+len(op.Tasks) > s.budget {
			return t, fmt.Errorf("%w: %d spent of %d, %d more requested",
				ErrBudgetExhausted, s.spent, s.budget, len(op.Tasks))
		}
		var err error
		if t.taskH, err = s.taskEntropyLocked(batch); err != nil {
			return t, err
		}
		if t.post, err = s.conditionLocked(tasks, answers, s.attributionLocked(op.Version, tasks, answers, extra)); err != nil {
			return t, fmt.Errorf("service: merge: %w", err)
		}
	case store.OpDone:
	default:
		return t, fmt.Errorf("service: unknown op kind %q", op.Kind)
	}
	return t, nil
}

// applyLocked commits a transition computed by stepLocked; callers hold mu.
// It is the only code that changes the session's refinement state, and it
// cannot fail: everything that can was checked by stepLocked.
func (s *Session) applyLocked(ctx context.Context, t transition) {
	op := t.op
	switch op.Kind {
	case store.OpObserve:
		s.observations = append(s.observations, t.obs...)
	case store.OpPartial:
		if s.pendBatch == nil {
			s.pendBatch = append([]int(nil), op.Batch...)
			s.pendAns = make(map[int]bool, len(op.Batch))
			s.pendTaskH = t.taskH
		}
		for i, task := range op.Tasks {
			s.pendAns[task] = op.Answers[i]
		}
		s.pendPost = t.post
		s.emitLocked(ctx, EventPartial, nil)
	case store.OpMerge:
		s.posterior = t.post
		s.version++
		s.spent += len(op.Tasks)
		s.sel = nil    // selection cache is bound to the previous posterior
		s.done = false // the new posterior may be uncertain again; re-derive
		s.pendBatch, s.pendAns, s.pendPost, s.pendTaskH = nil, nil, nil, 0
		s.rounds = append(s.rounds, RoundInfo{
			Round:   s.version,
			Tasks:   append([]int(nil), op.Tasks...),
			Answers: append([]bool(nil), op.Answers...),
			CumCost: s.spent,
			Entropy: t.post.Entropy(),
			TaskH:   t.taskH,
		})
		s.merges[answerSetHash(op.Version, op.Tasks, op.Answers)] = &AnswersResponse{SessionInfo: s.infoLocked(false), Merged: true}
		s.emitLocked(ctx, EventMerge, nil)
		s.refitLocked(ctx)
	case store.OpDone:
		s.done = true
		s.emitLocked(ctx, EventDone, nil)
	}
}

// journalLocked is the live path's persist-then-apply. It steps every op
// first — each seeing the observations of the observe ops ahead of it — so
// nothing is journaled for an op the state would refuse, then persists and
// applies them in order: an acknowledged transition is durable before any
// in-memory state changes, and a failed persist leaves the session as it
// was, safe to retry. An observe op that landed ahead of a failed persist
// stays; it is durable, and the retry's observe op is a tail match.
func (s *Session) journalLocked(ctx context.Context, ops ...store.Op) error {
	ts := make([]transition, len(ops))
	var extra []store.Observation
	for i, op := range ops {
		t, err := s.stepLocked(op, extra)
		if err != nil {
			return err
		}
		ts[i] = t
		extra = append(extra, t.obs...)
	}
	for _, t := range ts {
		if s.persist != nil {
			if err := s.persistOp(ctx, t.op); err != nil {
				return persistError(s.id, err)
			}
		}
		s.applyLocked(ctx, t)
	}
	return nil
}

// taskEntropyLocked returns H(T) for tasks against the committed
// posterior. In the normal select-then-answer flow it was already computed
// for the pinned batch or the cached selection; reusing it rather than
// paying the entropy kernel a second time inside the critical section is
// exact, because the kernel is deterministic in its inputs.
func (s *Session) taskEntropyLocked(tasks []int) (float64, error) {
	if s.pendBatch != nil && slices.Equal(s.pendBatch, tasks) {
		return s.pendTaskH, nil
	}
	if s.sel != nil && s.selVersion == s.version && slices.Equal(s.sel.Tasks, tasks) {
		return s.sel.TaskEntropy, nil
	}
	return core.TaskEntropy(s.posterior, tasks, s.pc)
}

// ledgerPrefixLocked returns the pending ledger extended by (tasks,
// answers), in batch order — the answered prefix the provisional posterior
// conditions on.
func (s *Session) ledgerPrefixLocked(batch, tasks []int, answers []bool) ([]int, []bool) {
	prefT := make([]int, 0, len(s.pendAns)+len(tasks))
	prefA := make([]bool, 0, len(s.pendAns)+len(tasks))
	for _, t := range batch {
		a, ok := s.pendAns[t]
		if !ok {
			j := slices.Index(tasks, t)
			if j < 0 {
				continue
			}
			a = answers[j]
		}
		prefT = append(prefT, t)
		prefA = append(prefA, a)
	}
	return prefT, prefA
}

// commitLocked journals and applies one complete answer set at the current
// version, behind the observe ops in obs.
func (s *Session) commitLocked(ctx context.Context, now time.Time, obs []store.Op, tasks []int, answers []bool) (*AnswersResponse, error) {
	op := store.Op{
		Kind:    store.OpMerge,
		Version: s.version,
		Tasks:   append([]int(nil), tasks...),
		Answers: append([]bool(nil), answers...),
		Epoch:   s.leaseEpoch,
		Time:    now,
	}
	if err := s.journalLocked(ctx, append(obs, op)...); err != nil {
		return nil, err
	}
	resp := *s.merges[answerSetHash(op.Version, op.Tasks, op.Answers)]
	return &resp, nil
}

// mergePartialLocked is the incremental answer path; callers hold mu.
//
// The bit-identity contract: the ledger never conditions the committed
// posterior step by step. Every partial recomputes the provisional
// posterior as ONE batch conditioning of the answered prefix (in batch
// order) against the round-start posterior, so when the final judgment
// arrives the ledger commits as the merge op of the whole batch in batch
// order — the same op, on the same inputs, the batched path journals.
// Budget is spent only inside that commit, so no retry of any prefix can
// double-spend.
func (s *Session) mergePartialLocked(ctx context.Context, now time.Time, req *AnswersRequest, tasks []int, answers []bool, workers, sources []string, attributed bool) (*AnswersResponse, error) {
	if req.Version != nil {
		if *req.Version > s.version {
			return nil, ErrVersionConflict
		}
		if *req.Version < s.version {
			// The batch these judgments belong to already committed. A
			// retried prefix replays idempotently iff every judgment
			// matches the committed round; anything else is a conflict.
			return s.replayCommittedPartialLocked(*req.Version, tasks, answers)
		}
	}

	batch := s.pendBatch
	if batch == nil {
		// First partial of a sequence: pin the outstanding selection.
		if s.sel == nil || s.selVersion != s.version || len(s.sel.Tasks) == 0 {
			return nil, ErrNoPendingBatch
		}
		batch = s.sel.Tasks
	}

	// Validate the judgments against the batch and the ledger, and drop
	// the ones already journaled, before touching any state.
	var newTasks []int
	var newAns []bool
	var newWorkers, newSources []string
	for i, t := range tasks {
		if !slices.Contains(batch, t) {
			return nil, fmt.Errorf("%w: task %d", ErrNotInBatch, t)
		}
		if a, ok := s.pendAns[t]; ok {
			if a != answers[i] {
				return nil, fmt.Errorf("%w: task %d", ErrAnswerConflict, t)
			}
			// An attributed retry of a journaled judgment must carry the
			// attribution it was journaled under.
			if attributed {
				if o, ok := s.observedLocked(s.version, t, nil); ok && o.Worker != workers[i] {
					return nil, fmt.Errorf("%w: task %d journaled for worker %q", ErrAttributionConflict, t, o.Worker)
				}
			}
			continue // idempotent duplicate of a journaled judgment
		}
		if j := slices.Index(newTasks, t); j >= 0 {
			if newAns[j] != answers[i] {
				return nil, fmt.Errorf("%w: task %d (twice in one request)", ErrAnswerConflict, t)
			}
			continue
		}
		newTasks = append(newTasks, t)
		newAns = append(newAns, answers[i])
		if workers != nil {
			newWorkers = append(newWorkers, workers[i])
			if sources != nil {
				newSources = append(newSources, sources[i])
			}
		}
	}
	if len(newTasks) == 0 {
		// Pure replay of already-journaled judgments.
		return &AnswersResponse{SessionInfo: s.infoLocked(false), Merged: false, Partial: true}, nil
	}

	obs := s.observeOpsLocked(now, newTasks, newAns, newWorkers, newSources)
	if prefT, prefA := s.ledgerPrefixLocked(batch, newTasks, newAns); len(prefT) == len(batch) {
		// The ledger now covers the batch: commit. The completing
		// judgments are journaled as the batch's OpMerge, never as a
		// partial op — the durable ledger stays a strict subset of its
		// batch, so crash recovery always re-enters the incremental path
		// instead of committing mid-replay.
		resp, err := s.commitLocked(ctx, now, obs, prefT, prefA)
		if err != nil {
			return nil, err
		}
		resp.Partial = true
		return resp, nil
	}
	op := store.Op{
		Kind:    store.OpPartial,
		Version: s.version,
		Tasks:   newTasks,
		Answers: newAns,
		Batch:   append([]int(nil), batch...),
		Epoch:   s.leaseEpoch,
		Time:    now,
	}
	if err := s.journalLocked(ctx, append(obs, op)...); err != nil {
		return nil, err
	}
	return &AnswersResponse{SessionInfo: s.infoLocked(false), Merged: false, Partial: true}, nil
}

// replayCommittedPartialLocked serves a retried partial prefix whose batch
// has already committed: idempotent (Merged=false, no spend) when every
// judgment matches the committed round at that version, ErrVersionConflict
// otherwise. The response carries the CURRENT state — the prefix's
// provisional posteriors are gone once the batch commits.
func (s *Session) replayCommittedPartialLocked(version int, tasks []int, answers []bool) (*AnswersResponse, error) {
	if version < 0 || version >= len(s.rounds) {
		return nil, ErrVersionConflict
	}
	r := s.rounds[version] // the round committed FROM that version
	for i, t := range tasks {
		j := slices.Index(r.Tasks, t)
		if j < 0 || r.Answers[j] != answers[i] {
			return nil, ErrVersionConflict
		}
	}
	return &AnswersResponse{SessionInfo: s.infoLocked(false), Merged: false, Partial: true}, nil
}

// Posterior returns the current posterior distribution (immutable; safe to
// share).
func (s *Session) Posterior() *dist.Joint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.posterior
}

// Calibration reports how well the session's per-task marginals are
// calibrated, binned over [0,1], plus the per-worker accuracy estimates
// behind the current posterior. True labels are unknown in production, so
// the report scores against the pseudo-gold induced by the committed
// posterior itself (the MAP label per task): perfect calibration then
// means "the marginals are as confident as their own argmax labels
// warrant", and per-worker Correct counts agreement with that consensus.
func (s *Session) Calibration(now time.Time, nBins int) (*CalibrationResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return nil, errSessionRetired
	}
	s.touch(now)
	marginals := s.posterior.Marginals()
	gold := make([]bool, len(marginals))
	for i, p := range marginals {
		gold[i] = p >= 0.5
	}
	inst := &worlds.Instance{Statements: make([]bookdata.Statement, len(marginals)), Gold: gold}
	cal, err := eval.CalibrationReport([]*worlds.Instance{inst}, []*dist.Joint{s.posterior}, nBins)
	if err != nil {
		return nil, fmt.Errorf("service: calibration: %w", err)
	}
	resp := &CalibrationResponse{
		ID:           s.id,
		Version:      s.version,
		WorkerModel:  s.workerModel,
		Refits:       s.refits,
		Observations: len(s.observations),
		Bins:         make([]CalibrationBinInfo, len(cal.Bins)),
		ECE:          cal.ECE,
		Brier:        cal.Brier,
		Total:        cal.Total,
		Workers:      s.workerInfosLocked(gold),
	}
	for i, b := range cal.Bins {
		resp.Bins[i] = CalibrationBinInfo{
			Lo: b.Lo, Hi: b.Hi, Count: b.Count,
			MeanPredicted: b.MeanPredicted, EmpiricalRate: b.EmpiricalRate,
		}
	}
	return resp, nil
}

// workerInfosLocked builds the per-worker view: support and consensus
// agreement from the observation log, the smoothed channel estimate the
// next weighted merge will use, and a Wilson interval on the agreement
// rate. gold is the pseudo-gold labeling from the committed posterior;
// callers hold mu.
func (s *Session) workerInfosLocked(gold []bool) []WorkerInfo {
	type tally struct{ support, correct, trues int }
	tallies := make(map[string]*tally)
	for _, o := range s.observations {
		t := tallies[o.Worker]
		if t == nil {
			t = &tally{}
			tallies[o.Worker] = t
		}
		t.support++
		if o.Answer {
			t.trues++
		}
		if o.Task >= 0 && o.Task < len(gold) && o.Answer == gold[o.Task] {
			t.correct++
		}
	}
	infos := make([]WorkerInfo, 0, len(tallies))
	for w, t := range tallies {
		sens, spec := s.workerChannelLocked(w)
		info := WorkerInfo{
			Worker:   w,
			Accuracy: (sens + spec) / 2,
			Raw:      s.pc,
			Bias:     0.5,
			Support:  t.support,
			Correct:  t.correct,
		}
		if raw, ok := s.workerRaw[w]; ok {
			info.Raw = raw
		}
		if t.support > 0 {
			info.Bias = float64(t.trues) / float64(t.support)
		}
		info.WilsonLo, info.WilsonHi = crowd.WilsonInterval(t.correct, t.support)
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Worker < infos[j].Worker })
	return infos
}

// WorkerStats returns the session's per-worker view without touching the
// TTL clock — the fleet aggregation sweeping every resident session must
// not keep them all alive forever.
func (s *Session) WorkerStats() []WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	marginals := s.posterior.Marginals()
	gold := make([]bool, len(marginals))
	for i, p := range marginals {
		gold[i] = p >= 0.5
	}
	return s.workerInfosLocked(gold)
}

// record snapshots the session's full durable state: creation parameters
// plus the applied merge history (the rounds trace IS the op log). The
// posterior itself is deliberately not serialized — recovery replays the
// ops through the same conditioning arithmetic, which is what makes a
// restored posterior bit-identical rather than merely close.
func (s *Session) record() *store.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recordLocked()
}

// recordLocked is record for callers already holding mu.
func (s *Session) recordLocked() *store.Record {
	rec := &store.Record{
		ID:         s.id,
		Selector:   s.selName,
		Pc:         s.pc,
		K:          s.k,
		Budget:     s.budget,
		Seed:       s.seed,
		Prior:      s.priorRec,
		Created:    s.created,
		LastAccess: s.lastAccess,
		Done:       s.done,
		LeaseEpoch: s.leaseEpoch,
	}
	if s.workerModel != WorkerModelFixed {
		// Recorded only when it carries information: a fixed session's
		// record stays byte-identical to one written before worker models
		// existed.
		rec.WorkerModel = s.workerModel
	}
	if len(s.observations) > 0 {
		rec.Observations = append([]store.Observation(nil), s.observations...)
	}
	rec.Ops = make([]store.Op, len(s.rounds))
	for i, r := range s.rounds {
		rec.Ops[i] = store.Op{
			Kind:    store.OpMerge,
			Version: r.Round - 1, // Round is 1-based; the op version is the pre-merge version
			Tasks:   append([]int(nil), r.Tasks...),
			Answers: append([]bool(nil), r.Answers...),
		}
	}
	if s.pendBatch != nil {
		rec.PendingBatch = append([]int(nil), s.pendBatch...)
		for _, t := range s.pendBatch {
			if a, ok := s.pendAns[t]; ok {
				rec.PendingTasks = append(rec.PendingTasks, t)
				rec.PendingAnswers = append(rec.PendingAnswers, a)
			}
		}
	}
	return rec
}

// flush writes the session's full record to the store while HOLDING the
// session mutex. The mutex matters: store.Put truncates the session's op
// log, so a concurrent Merge (which appends to that log before committing)
// slipping between the record snapshot and the Put could have its
// acknowledged, fsynced op wiped. Serializing flush against the state
// machine makes that interleaving impossible.
func (s *Session) flush(st store.SessionStore) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return st.Put(s.recordLocked())
}

// retire marks this instance dead for mutations (see the retired field).
func (s *Session) retire() {
	s.mu.Lock()
	s.retired = true
	s.mu.Unlock()
}

// retireAndFlush atomically flushes the record and retires the instance:
// no merge can land on this instance after the flushed snapshot, so the
// snapshot plus the store's log is always the session's complete history.
// The instance is retired even when the flush fails — it is leaving the
// manager's map either way, and its merges are already in the op log.
func (s *Session) retireAndFlush(st store.SessionStore) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := st.Put(s.recordLocked())
	s.retired = true
	return err
}

// restoreSession builds a session from its durable record: the one
// constructor behind Manager.Create (a fresh record) and crash recovery or
// adoption (a stored one). It checks the parameters as
// CreateSessionRequest.Validate does, rebuilds the prior and the selector,
// and applies the record's ops in journal order through the transition
// function live requests run, so the restored state matches the pre-crash
// session bit for bit. Random selectors restart at the recorded seed. The
// session comes back without persist, tracer or event hooks.
func restoreSession(rec *store.Record, anonWorker string, now time.Time) (*Session, error) {
	fail := func(err error) (*Session, error) {
		return nil, fmt.Errorf("service: session %s: %w", rec.ID, err)
	}
	if err := validateParams(rec.Pc, rec.K, rec.Budget, rec.WorkerModel); err != nil {
		return fail(err)
	}
	prior, err := priorJoint(rec.Prior)
	if err != nil {
		return fail(err)
	}
	selector, err := eval.NewSelector(eval.SelectorKind(rec.Selector), rec.Seed)
	if err != nil {
		return fail(err)
	}
	// newSession stamps lastAccess = now deliberately: loading IS an
	// access, so the TTL clock restarts rather than resuming from the
	// recorded LastAccess, which exists for operators reading records.
	s := newSession(rec.ID, prior, selector, rec.Selector, rec.Pc, rec.K, rec.Budget, now)
	s.priorRec = rec.Prior
	s.seed = rec.Seed
	s.created = rec.Created
	if rec.WorkerModel != "" {
		s.workerModel = rec.WorkerModel
	}
	if anonWorker != "" {
		s.anonWorker = anonWorker
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range recordJournal(rec) {
		t, err := s.stepLocked(op, nil)
		if err != nil {
			return fail(fmt.Errorf("replaying %s op at version %d: %w", op.Kind, op.Version, err))
		}
		s.applyLocked(context.Background(), t)
	}
	return s, nil
}

// priorJoint rebuilds a prior from its raw recorded form through the
// constructor that first built it, so the result has the same bits.
func priorJoint(p store.Prior) (*dist.Joint, error) {
	switch {
	case len(p.Marginals) > 0:
		return dist.Independent(p.Marginals)
	case len(p.Worlds) > 0:
		return WireJoint{N: p.N, Worlds: p.Worlds, Probs: p.Probs}.Joint()
	}
	return nil, errors.New("record has no prior")
}

// recordJournal unfolds a compacted record into journal order: every
// observation journaled at version v precedes the merge that advanced v.
// The open round's observations, its partial ledger (one op: a provisional
// posterior depends only on the answered prefix) and the done latch follow.
func recordJournal(rec *store.Record) []store.Op {
	ops := make([]store.Op, 0, len(rec.Ops)+len(rec.Observations)+2)
	obs := rec.Observations
	observeUpTo := func(v int) {
		for ; len(obs) > 0 && obs[0].Version <= v; obs = obs[1:] {
			o := obs[0]
			op := store.Op{Kind: store.OpObserve, Version: o.Version, Tasks: []int{o.Task},
				Answers: []bool{o.Answer}, Workers: []string{o.Worker}, Time: o.Time}
			if o.Source != "" {
				op.Sources = []string{o.Source}
			}
			ops = append(ops, op)
		}
	}
	for _, m := range rec.Ops {
		observeUpTo(m.Version)
		ops = append(ops, m)
	}
	observeUpTo(math.MaxInt)
	v := len(rec.Ops)
	if len(rec.PendingTasks) > 0 {
		ops = append(ops, store.Op{Kind: store.OpPartial, Version: v,
			Tasks: rec.PendingTasks, Answers: rec.PendingAnswers, Batch: rec.PendingBatch})
	}
	if rec.Done {
		ops = append(ops, store.Op{Kind: store.OpDone, Version: v})
	}
	return ops
}
