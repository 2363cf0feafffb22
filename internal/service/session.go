package service

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"strings"
	"sync"
	"time"

	"crowdfusion/internal/core"
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/quality"
	"crowdfusion/internal/store"
	"crowdfusion/internal/trace"
)

// State machine errors, mapped to HTTP statuses by the server layer.
var (
	// ErrVersionConflict is returned when an answer set references a
	// posterior version that is neither current nor a recognized retry —
	// the client lost a race with another merge and must re-select.
	ErrVersionConflict = errors.New("service: answer set references a stale posterior version; re-select")
	// ErrBudgetExhausted is returned when a merge would spend more tasks
	// than the session budget has left.
	ErrBudgetExhausted = core.ErrBudgetExhausted
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
// Its refinement state, a core.Run, changes only through one transition
// function over store.Op: stepLocked computes an op's effect, applyLocked
// commits it.
// Live Merge and Select build the op, step it, persist it, then apply it;
// Create and crash recovery both build the session from a store.Record and
// apply its ops in journal order (restoreSession). The posterior after
// round v is a deterministic function of the prior and the answer sets
// merged so far (Equation 3), with the per-judgment channels each merge
// journaled on em/dawid-skene sessions, so replay recomputes live state
// bit for bit.
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
	k        int

	mu sync.Mutex
	// run is the refinement loop: the committed posterior, pc, budget,
	// spent, version (merges applied) and the done latch.
	run core.Run

	// sel caches the last selection; valid while its Version is the
	// current version and selK is the requested k, so clients that retry
	// a select (or poll it from several workers) get one batch per
	// posterior instead of recomputing the greedy sweep. A merge clears it.
	sel  *SelectResponse
	selK int

	// The session's history, indexed by the version each round committed
	// from: rounds is the per-round trace (GET ?rounds=true), merges the
	// response each commit recorded, for idempotent replay of retried
	// merges. A session adopted with committed rounds defers both
	// (historyDeferred): its replay rebuilds only the state the current
	// posterior needs, and historyLocked rebuilds the history from the
	// journal on first read. Until then a live merge records no history.
	rounds          []RoundInfo
	merges          []*AnswersResponse
	historyDeferred bool

	// journal is every op the session applied, in order, less the
	// partial and done ops a later merge superseded (store.Extend): the
	// session's durable history, and the observation log the worker model
	// is fitted to.
	journal []store.Op

	// workers is the worker model: how crowd accuracy enters merging
	// (fixed / em / dawid-skene) and each worker's channel from the last
	// refit; refits counts those refits. anonWorker is the identity that
	// unattributed (legacy-form) judgments are recorded under.
	workers    crowd.WorkerModel
	refits     int
	anonWorker string

	// metrics receives refit latency and the weighted-merge count, updated
	// while holding mu.
	metrics *Metrics

	// Pending-batch ledger for incremental (answer-at-a-time) merging.
	// While pendBatch is non-nil, the selected batch at the current
	// version is being answered one judgment at a time: pendAns holds the
	// judgments received so far, pendTaskH the batch's H(T), and pendPost
	// the PROVISIONAL posterior — the round-start posterior conditioned on
	// the answered prefix in one batch-order pass (stepLocked), never step
	// by step. The run's posterior never moves until the ledger commits as
	// the merge op of the whole batch in batch order — the op, on the
	// inputs, a batched submission journals — so the commit is
	// bit-identical to it, and budget and version advance exactly once.
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
		id:         id,
		selector:   selector,
		selName:    selName,
		k:          k,
		run:        core.Run{Posterior: prior, Pc: pc, Budget: budget},
		workers:    crowd.NewWorkerModel(WorkerModelFixed, pc, 0),
		anonWorker: DefaultAnonWorker,
		lastAccess: now,
		created:    now,
		metrics:    &Metrics{}, // the manager's counters replace it on attach
	}
}

// DefaultAnonWorker is the worker identity unattributed judgments are
// recorded under when no -anon-worker override is configured.
const DefaultAnonWorker = "anon"

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
	post := s.run.Posterior
	if s.pendPost != nil {
		post = s.pendPost
	}
	info := SessionInfo{
		ID:          s.id,
		Version:     s.run.Version,
		N:           post.N(),
		SupportSize: post.SupportSize(),
		Marginals:   append([]float64(nil), post.Marginals()...),
		Entropy:     post.Entropy(),
		Utility:     post.Utility(),
		Spent:       s.run.Spent,
		Budget:      s.run.Budget,
		K:           s.k,
		Pc:          s.run.Pc,
		Selector:    s.selName,
		WorkerModel: s.workers.Name(),
		Done:        s.run.Done || s.run.Spent >= s.run.Budget,
	}
	if s.pendBatch != nil {
		p := &PendingInfo{
			Version:   s.run.Version,
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
// is set. On an adopted session the first such read rebuilds the history
// (historyLocked).
func (s *Session) Info(ctx context.Context, now time.Time, withRounds bool) SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch(now)
	if withRounds {
		s.historyLocked(ctx)
	}
	return s.infoLocked(withRounds)
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
// The whole select, greedy sweep included, holds the session mutex: a
// merge on the same session waits for the sweep, so the committed
// selection always matches its response's Version, and concurrent selects
// of one (version, k) run the sweep once.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return nil, false, errSessionRetired
	}
	s.touch(now)

	if s.pendBatch != nil {
		// An incremental answer sequence is in flight: the pending batch
		// IS the outstanding selection. It stays pinned (even across a k
		// override) until the ledger commits — swapping batches mid-answer
		// would orphan journaled judgments.
		return &SelectResponse{
			Tasks:       append([]int(nil), s.pendBatch...),
			TaskEntropy: s.pendTaskH,
			Version:     s.run.Version,
			Cached:      true,
		}, true, nil
	}

	k := s.k
	if kOverride > 0 {
		k = kOverride
	}
	if k = s.run.K(k); k == 0 {
		return &SelectResponse{Tasks: []int{}, Version: s.run.Version, Done: true}, false, nil
	}
	if s.sel != nil && s.sel.Version == s.run.Version && s.selK == k {
		hit := *s.sel
		hit.Cached = true
		return &hit, true, nil
	}

	tasks, err := s.run.Select(s.selector, k)
	if err != nil {
		return nil, false, fmt.Errorf("service: selection: %w", err)
	}
	resp = &SelectResponse{Tasks: tasks, Version: s.run.Version}
	if len(tasks) == 0 {
		// Theorem 2: no remaining task nets positive utility. Latch so
		// later selects and Info report completion without re-sweeping.
		resp.Done = true
		op := store.Op{Kind: store.OpDone, Version: s.run.Version, Epoch: s.leaseEpoch, Time: now}
		if s.persist != nil {
			// Best-effort: the latch is derived state — a restarted
			// daemon re-derives it with one re-sweep — so a store hiccup
			// must not fail the read. The persist hook records the
			// failure in the store metrics. A fenced write is different:
			// another node owns the session, so this instance must not
			// answer from memory at all.
			var fe *store.FencedError
			if err := s.persistOp(ctx, op); errors.As(err, &fe) {
				return nil, false, persistError(s.id, err)
			}
		}
		s.applyLocked(ctx, transition{op: op})
	} else {
		if resp.TaskEntropy, err = core.TaskEntropy(s.run.Posterior, tasks, s.run.Pc); err != nil {
			return nil, false, err
		}
		s.emitLocked(ctx, EventSelect, func(ev *SessionEvent) {
			ev.Tasks = append([]int(nil), tasks...)
		})
	}
	s.sel, s.selK = resp, k
	return resp, false, nil
}

// persistError maps a persist failure for the caller: a fenced write
// surfaces as *FencedError — the session has a new owner, the handler
// retires this instance and redirects — while anything else is ErrStore
// (the op was NOT applied; persistence happens before the in-memory
// commit, so the client can safely retry).
func persistError(id string, err error) error {
	var fe *store.FencedError
	if errors.As(err, &fe) {
		return &FencedError{ID: id, Owner: fe.Lease.Owner, epoch: fe.WriteEpoch}
	}
	return fmt.Errorf("%w: %v", ErrStore, err)
}

// Merge applies a crowd answer set to the posterior (Equation 3): a round
// spends one budget unit per task and conditions the posterior once, on the
// whole set. The request becomes one judgment list at the top — the
// Judgments form, or the legacy Tasks/Answers form as worker-less
// judgments — and takes three steps under the session mutex:
//
//  1. Replay (replayLocked). The retry rules, in this order, decide the
//     request before any ledger or batch logic runs:
//     - a request with a version replays when its judgments are the answer
//     set committed from that version, task for task;
//     - a non-partial request without a version replays when its judgments
//     are any committed answer set — also while a ledger is open;
//     - a partial, or any request while a ledger is open, at a committed
//     version replays when every judgment matches the round committed
//     from that version;
//     - any version other than the current one is ErrVersionConflict.
//     A replay reports Merged=false and spends nothing. An attributed
//     replay of a committed set must keep the attribution the commit
//     derived (ErrAttributionConflict).
//  2. Resolve the batch: the open ledger's; else a partial pins the
//     outstanding selection (ErrNoPendingBatch when there is none), and a
//     full set is its own batch.
//  3. Fold the judgments into the ledger. Judgments it already holds are
//     dropped; ones outside the batch (ErrNotInBatch) or contradicting it
//     (ErrAnswerConflict) refuse the request. The observe op is journaled,
//     then a merge op when the ledger covers the batch — spending budget
//     and advancing the version exactly once — or a partial op when it
//     does not. A full answer set is a ledger that completes its batch in
//     one request.
//
// Clients that mean to submit an identical answer set twice (the selector
// can re-pick the same tasks and the crowd answer identically) must thread
// the version through: without it, the second submission is a retry.
func (s *Session) Merge(ctx context.Context, now time.Time, req *AnswersRequest) (resp *AnswersResponse, err error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	js, attributed := req.judgments()
	if s.tracer != nil {
		var sp *trace.Span
		ctx, sp = s.tracer.Start(ctx, "session.merge")
		sp.SetAttr("session", s.id)
		sp.SetAttr("tasks", len(js))
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
	// A judgment without a worker is the anonymous worker's, except a
	// legacy-form one on a fixed session: that one journals no observation,
	// so the session's log is byte-identical to one written before worker
	// models existed.
	if attributed || s.workers.Name() != WorkerModelFixed {
		for i := range js {
			if js[i].Worker == "" {
				js[i].Worker = s.anonWorker
			}
		}
	}

	if resp, ok, err := s.replayLocked(ctx, req, js, attributed); ok {
		return resp, err
	}

	joins := req.Partial || s.pendBatch != nil // the request joins a ledger
	batch := s.pendBatch
	if batch == nil && req.Partial {
		if s.sel == nil || len(s.sel.Tasks) == 0 {
			return nil, ErrNoPendingBatch
		}
		batch = s.sel.Tasks
	}

	// A full set with no ledger open folds into an empty ledger of its own
	// batch and keeps every judgment; the conditioning kernel refuses a
	// task it names twice.
	fresh := js
	if joins {
		if fresh, err = s.foldLocked(batch, js, attributed); err != nil {
			return nil, err
		}
		if len(fresh) == 0 {
			return &AnswersResponse{SessionInfo: s.infoLocked(false), Partial: true}, nil
		}
	}
	op := store.Op{
		Kind:    store.OpPartial,
		Version: s.run.Version,
		Tasks:   make([]int, len(fresh)),
		Answers: make([]bool, len(fresh)),
		Epoch:   s.leaseEpoch,
		Time:    now,
	}
	for i, j := range fresh {
		op.Tasks[i], op.Answers[i] = j.Task, j.Answer
	}
	if batch == nil {
		batch = op.Tasks
	}
	// The judgments completing a batch are journaled as its merge op, over
	// the ledger in batch order — the op a batched submission journals —
	// never as a partial op: the durable ledger stays a strict subset of
	// its batch, so crash recovery re-enters the ledger, never commits.
	if tasks, answers := s.ledgerPrefixLocked(batch, op.Tasks, op.Answers); len(tasks) == len(batch) {
		op.Kind, op.Tasks, op.Answers = store.OpMerge, tasks, answers
	} else {
		op.Batch = slices.Clone(batch)
	}
	if err := s.journalLocked(ctx, append(s.observeOpsLocked(now, fresh), op)...); err != nil {
		return nil, err
	}
	if op.Kind == store.OpPartial {
		return &AnswersResponse{SessionInfo: s.infoLocked(false), Partial: true}, nil
	}
	return &AnswersResponse{SessionInfo: s.infoLocked(false), Merged: true, Partial: joins}, nil
}

// replayLocked applies the retry rules, in the order Merge lists them,
// before any ledger or batch logic runs. ok reports that a rule decided the
// request, as a replay or a refusal; otherwise it is new work at the
// current version. The rules match against the journal's merge ops, the
// answer sets the rounds committed; only a replay of a committed set reads
// the history, for the response its commit recorded.
func (s *Session) replayLocked(ctx context.Context, req *AnswersRequest, js []Judgment, attributed bool) (resp *AnswersResponse, ok bool, err error) {
	if req.Version == nil {
		if req.Partial {
			return nil, false, nil
		}
		for _, op := range s.journal {
			if op.Kind != store.OpMerge {
				continue
			}
			if resp, ok, err := s.replayRoundLocked(ctx, op, req.Partial, js, attributed); ok {
				return resp, ok, err
			}
		}
		return nil, false, nil
	}
	v := *req.Version
	if v == s.run.Version {
		return nil, false, nil
	}
	i := slices.IndexFunc(s.journal, func(op store.Op) bool { return op.Kind == store.OpMerge && op.Version == v })
	if i < 0 {
		return nil, true, ErrVersionConflict
	}
	op := s.journal[i]
	if resp, ok, err := s.replayRoundLocked(ctx, op, req.Partial, js, attributed); ok {
		return resp, ok, err
	}
	if req.Partial || s.pendBatch != nil {
		// A retried prefix of a ledger that has since committed. The
		// response carries the current state: the prefix's provisional
		// posterior is gone once its batch commits.
		if !slices.ContainsFunc(js, func(j Judgment) bool {
			i := slices.Index(op.Tasks, j.Task)
			return i < 0 || op.Answers[i] != j.Answer
		}) {
			return &AnswersResponse{SessionInfo: s.infoLocked(false), Partial: true}, true, nil
		}
	}
	return nil, true, ErrVersionConflict
}

// replayRoundLocked serves a retry of the answer set the merge op m
// committed; ok=false unless js is that set, task for task. The replay is
// the response the commit recorded, with Merged=false and Partial as the
// retrying request set it: the flag says whether this request joined an
// incremental sequence, which the commit cannot know. A retry carrying
// explicit judgments must keep the attribution the commit derived; the log
// at m's version is frozen once it commits, so deriving it again gives the
// committed one. Legacy-form retries carry no attribution to contradict.
func (s *Session) replayRoundLocked(ctx context.Context, m store.Op, partial bool, js []Judgment, attributed bool) (*AnswersResponse, bool, error) {
	if len(m.Tasks) != len(js) {
		return nil, false, nil
	}
	for i, j := range js {
		if m.Tasks[i] != j.Task || m.Answers[i] != j.Answer {
			return nil, false, nil
		}
	}
	if attributed {
		rec := s.attributionLocked(m.Version, m.Tasks, m.Answers, nil)
		if rec != nil && !slices.EqualFunc(rec, js, func(w string, j Judgment) bool { return w == j.Worker }) {
			return nil, true, fmt.Errorf("%w: committed attribution %q", ErrAttributionConflict, strings.Join(rec, ","))
		}
	}
	s.historyLocked(ctx)
	replay := *s.merges[m.Version]
	replay.Merged, replay.Partial = false, partial
	return &replay, true, nil
}

// foldLocked returns the judgments a request adds to the ledger of batch,
// in request order. Every judgment must name a batch task (ErrNotInBatch)
// and agree with the ledger and with the request's earlier judgments
// (ErrAnswerConflict). A judgment the ledger already holds is dropped, and
// an attributed one must name the worker it was journaled for
// (ErrAttributionConflict); a judgment the request repeats is dropped too.
// js is filtered in place.
func (s *Session) foldLocked(batch []int, js []Judgment, attributed bool) ([]Judgment, error) {
	fresh := js[:0]
	for _, j := range js {
		if !slices.Contains(batch, j.Task) {
			return nil, fmt.Errorf("%w: task %d", ErrNotInBatch, j.Task)
		}
		if a, ok := s.pendAns[j.Task]; ok {
			if a != j.Answer {
				return nil, fmt.Errorf("%w: task %d", ErrAnswerConflict, j.Task)
			}
			if attributed {
				if o, ok := s.observedLocked(s.run.Version, j.Task, nil); ok && o.Worker != j.Worker {
					return nil, fmt.Errorf("%w: task %d journaled for worker %q", ErrAttributionConflict, j.Task, o.Worker)
				}
			}
			continue
		}
		if i := slices.IndexFunc(fresh, func(f Judgment) bool { return f.Task == j.Task }); i >= 0 {
			if fresh[i].Answer != j.Answer {
				return nil, fmt.Errorf("%w: task %d (twice in one request)", ErrAnswerConflict, j.Task)
			}
			continue
		}
		fresh = append(fresh, j)
	}
	return fresh, nil
}

// observeOpsLocked returns the observe op journaling a judgment set ahead
// of the merge or partial op consuming it. It returns none for worker-less
// judgments, and none for a retry whose judgments already end the log at
// this version (its observe op landed, its merge op did not), so a retry
// cannot double-record.
func (s *Session) observeOpsLocked(now time.Time, js []Judgment) []store.Op {
	if js[0].Worker == "" || s.observationsTailMatchLocked(js) {
		return nil
	}
	op := store.Op{
		Kind:    store.OpObserve,
		Version: s.run.Version,
		Tasks:   make([]int, len(js)),
		Answers: make([]bool, len(js)),
		Workers: make([]string, len(js)),
		Epoch:   s.leaseEpoch,
		Time:    now,
	}
	for i, j := range js {
		op.Tasks[i], op.Answers[i], op.Workers[i] = j.Task, j.Answer, j.Worker
		if j.Source != "" {
			if op.Sources == nil {
				op.Sources = make([]string, len(js))
			}
			op.Sources[i] = j.Source
		}
	}
	return []store.Op{op}
}

// observationsTailMatchLocked reports whether the observation log already
// ends with exactly this judgment set at the current version.
func (s *Session) observationsTailMatchLocked(js []Judgment) bool {
	n := len(js)
	for _, o := range observationsSince(s.journal, s.run.Version) {
		if n == 0 {
			break
		}
		n--
		if o.Task != js[n].Task || o.Answer != js[n].Answer || o.Worker != js[n].Worker {
			return false
		}
	}
	return n == 0
}

// observedLocked returns the latest observation journaled for task at
// version v, reading backwards through extra (the observe ops about to be
// journaled ahead of the op being stepped), then through the journal. A
// retried observe op lands after the one it retries, so the latest entry
// is the one a commit consumed.
func (s *Session) observedLocked(v, task int, extra []store.Op) (Judgment, bool) {
	for _, ops := range [][]store.Op{extra, s.journal} {
		for ov, o := range observationsSince(ops, v) {
			if ov == v && o.Task == task {
				return o, true
			}
		}
	}
	return Judgment{}, false
}

// observationsSince yields the observations a journal holds from version v
// on, from the last to the first, each with the version it arrived at.
func observationsSince(ops []store.Op, v int) iter.Seq2[int, Judgment] {
	return func(yield func(int, Judgment) bool) {
		for i := len(ops) - 1; i >= 0 && ops[i].Version >= v; i-- {
			op := ops[i]
			for j := len(op.Tasks) - 1; j >= 0 && op.Kind == store.OpObserve; j-- {
				if !yield(op.Version, Judgment{Task: op.Tasks[j], Answer: op.Answers[j], Worker: op.Workers[j]}) {
					return
				}
			}
		}
	}
}

// journalAnswers returns every observation journaled in ops, in journal
// order, as the answers the worker model is fitted to and tallies.
func journalAnswers(ops []store.Op) []crowd.Answer {
	var answers []crowd.Answer
	for _, op := range ops {
		for i := 0; i < len(op.Tasks) && op.Kind == store.OpObserve; i++ {
			answers = append(answers, crowd.Answer{Fact: op.Tasks[i], Value: op.Answers[i], Worker: op.Workers[i]})
		}
	}
	return answers
}

// attributionLocked derives the worker attribution of a judgment set at
// version v from the observation log: each task takes the worker of the
// latest observation journaled for it at v when that observation carries
// the same answer, the anonymous worker otherwise. It is nil when the log
// attributes none of the judgments — unattributed judgments on a fixed
// session. Live merges and replay both derive attribution here, so the
// conditioning channels and the idempotency log's attribution can never
// depend on which of the two built the state.
func (s *Session) attributionLocked(v int, tasks []int, answers []bool, extra []store.Op) []string {
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

// channelsLocked returns the channel each judgment of tasks is conditioned
// on, parallel to tasks; both nil on a fixed session, which conditions on
// the scalar pc. A judgment whose channel the journal records — on op, or,
// for a pending-ledger task, on the partial op that journaled it — takes
// that one, so replay conditions exactly as the live merge did without
// recomputing a refit. Otherwise, before the first refit or when the log
// attributes none of the judgments, every judgment takes pc; after it, each
// takes its worker's current smoothed channel. The pre-refit equivalence is
// exact, not approximate: the weighted kernel delegates uniform channels to
// the scalar one inside dist, so a fresh em session is bit-identical to a
// fixed one until evidence arrives.
func (s *Session) channelsLocked(op store.Op, tasks []int, workers []string) (sens, spec []float64) {
	if s.workers.Name() == WorkerModelFixed {
		return nil, nil
	}
	weighted := s.refits > 0 && workers != nil
	if weighted {
		s.metrics.WeightedMerges.Add(1)
	}
	sens, spec = make([]float64, len(tasks)), make([]float64, len(tasks))
	for i, task := range tasks {
		switch sn, sp, ok := s.recordedChannelLocked(op, task); {
		case ok:
			sens[i], spec[i] = sn, sp
		case weighted:
			sens[i], spec[i], _ = s.workers.Channel(workers[i])
		default:
			sens[i], spec[i] = s.run.Pc, s.run.Pc
		}
	}
	return sens, spec
}

// recordedChannelLocked returns the channel the journal records for task
// when op, a replayed conditioning op, carries channels: op's own, or that
// of the partial op at the current version that journaled task. A live op
// carries none, and computes every channel afresh.
func (s *Session) recordedChannelLocked(op store.Op, task int) (sens, spec float64, ok bool) {
	if len(op.Sens) == 0 {
		return 0, 0, false
	}
	if j := slices.Index(op.Tasks, task); j >= 0 {
		return op.Sens[j], op.Spec[j], true
	}
	for i := len(s.journal) - 1; i >= 0 && s.journal[i].Version == s.run.Version; i-- {
		p := s.journal[i]
		if j := slices.Index(p.Tasks, task); p.Kind == store.OpPartial && j >= 0 && len(p.Sens) > 0 {
			return p.Sens[j], p.Spec[j], true
		}
	}
	return 0, 0, false
}

// refitLocked refits the worker model to the accumulated observation log;
// callers hold mu and have just committed a merge. A fixed session, an
// empty log or an estimator failure keeps the previous channels — the
// merge that triggered the refit is already committed and must not be
// unwound.
func (s *Session) refitLocked(ctx context.Context) {
	start := time.Now()
	if s.workers.Name() == WorkerModelFixed || !s.workers.Fit(journalAnswers(s.journal)) {
		return
	}
	s.refits++
	s.metrics.WorkerRefits.Add(1)
	s.metrics.RefitDuration.observe(time.Since(start))
	s.emitLocked(ctx, EventRefit, func(ev *SessionEvent) { ev.Refits = s.refits })
}

// transition is one op's effect, computed by stepLocked and committed by
// applyLocked. The split lets the live path refuse an op — an answer set
// the posterior rules out, a spent budget, a task outside the batch —
// before anything is journaled, while replay runs the same computation.
type transition struct {
	op    store.Op    // the op to journal: a live conditioning op gains its channels
	post  *dist.Joint // a merge's next posterior, a partial's provisional one
	taskH float64     // H(T) of a partial's batch, or of a merge's answer set while rounds are recorded
}

// stepLocked computes op's transition against the current state, changing
// nothing; callers hold mu. It is the one place that knows which op may
// come next — the store checks only the journal's ordering. extra holds
// the observe ops the live path is about to journal ahead of op (on replay
// they are already applied), so attribution reads the same log either way.
func (s *Session) stepLocked(op store.Op, extra []store.Op) (transition, error) {
	t := transition{op: op}
	if op.Version != s.run.Version {
		return t, fmt.Errorf("service: %s op at version %d, session at %d", op.Kind, op.Version, s.run.Version)
	}
	if len(op.Answers) != len(op.Tasks) {
		return t, fmt.Errorf("service: %s op has %d tasks but %d answers", op.Kind, len(op.Tasks), len(op.Answers))
	}
	if len(op.Tasks) == 0 && op.Kind != store.OpDone {
		return t, fmt.Errorf("service: empty %s op", op.Kind)
	}
	if len(op.Sens) > 0 || len(op.Spec) > 0 {
		switch {
		case s.workers.Name() == WorkerModelFixed:
			return t, fmt.Errorf("service: %s op on a fixed session carries channels", op.Kind)
		case op.Kind != store.OpMerge && op.Kind != store.OpPartial:
			return t, fmt.Errorf("service: %s op carries channels", op.Kind)
		case len(op.Sens) != len(op.Tasks) || len(op.Spec) != len(op.Tasks):
			return t, fmt.Errorf("service: %s op has %d tasks but %d/%d channels",
				op.Kind, len(op.Tasks), len(op.Sens), len(op.Spec))
		}
	}
	switch op.Kind {
	case store.OpObserve:
		if len(op.Workers) != len(op.Tasks) || (len(op.Sources) != 0 && len(op.Sources) != len(op.Tasks)) {
			return t, fmt.Errorf("service: observe op has %d tasks, %d workers, %d sources",
				len(op.Tasks), len(op.Workers), len(op.Sources))
		}
		for i, task := range op.Tasks {
			if task < 0 || task >= s.run.Posterior.N() {
				return t, fmt.Errorf("service: observe op task %d out of range [0,%d)", task, s.run.Posterior.N())
			}
			if op.Workers[i] == "" {
				return t, fmt.Errorf("service: observe op judgment %d has no worker", i)
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
			for i, task := range op.Tasks {
				if !slices.Contains(batch, task) {
					return t, fmt.Errorf("%w: task %d", ErrNotInBatch, task)
				}
				if _, ok := s.pendAns[task]; ok || slices.Contains(op.Tasks[:i], task) {
					return t, fmt.Errorf("%w: task %d judged twice", ErrAnswerConflict, task)
				}
			}
			// The judgment completing a batch is journaled as its merge.
			if tasks, answers = s.ledgerPrefixLocked(batch, op.Tasks, op.Answers); len(tasks) == len(batch) {
				return t, fmt.Errorf("service: partial op completes its batch of %d", len(batch))
			}
		}
		sens, spec := s.channelsLocked(op, tasks, s.attributionLocked(op.Version, tasks, answers, extra))
		var err error // the run refuses a set larger than the remaining budget
		if t.post, err = s.run.Update(tasks, answers, sens, spec); err != nil {
			return t, fmt.Errorf("service: merge: %w", err)
		}
		if op.Kind == store.OpPartial || !s.historyDeferred {
			// A merge's H(T) is read only by the round it records.
			if t.taskH, err = s.taskEntropyLocked(batch); err != nil {
				return t, err
			}
		}
		if sens != nil && len(op.Sens) == 0 {
			// The op to journal records the channel each of its judgments
			// was conditioned on; a merge conditions on its own tasks.
			t.op.Sens, t.op.Spec = sens, spec
			if op.Kind == store.OpPartial {
				t.op.Sens, t.op.Spec = make([]float64, len(op.Tasks)), make([]float64, len(op.Tasks))
				for i, task := range op.Tasks {
					j := slices.Index(tasks, task)
					t.op.Sens[i], t.op.Spec[i] = sens[j], spec[j]
				}
			}
		}
	case store.OpDone:
	default:
		return t, fmt.Errorf("service: unknown op kind %q", op.Kind)
	}
	return t, nil
}

// applyLocked commits a transition computed by stepLocked; callers hold mu.
// It is the only code that changes the session's refinement state, and it
// cannot fail: everything that can was checked by stepLocked. Refitting the
// worker model after a merge is the caller's: the live path refits after
// every merge, replay once at the end (restoreSession).
func (s *Session) applyLocked(ctx context.Context, t transition) {
	op := t.op
	s.journal = store.Extend(s.journal, op)
	switch op.Kind {
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
		s.run.Commit(t.post, len(op.Tasks))
		s.sel = nil // selection cache is bound to the previous posterior
		s.pendBatch, s.pendAns, s.pendPost, s.pendTaskH = nil, nil, nil, 0
		if !s.historyDeferred {
			s.rounds = append(s.rounds, RoundInfo{
				Round:   s.run.Version,
				Tasks:   op.Tasks,
				Answers: op.Answers,
				CumCost: s.run.Spent,
				Entropy: t.post.Entropy(),
				TaskH:   t.taskH,
			})
			s.merges = append(s.merges, &AnswersResponse{SessionInfo: s.infoLocked(false), Merged: true})
		}
		s.emitLocked(ctx, EventMerge, nil)
	case store.OpDone:
		s.run.Done = true
		s.emitLocked(ctx, EventDone, nil)
	}
}

// journalLocked is the live path's persist-then-apply. It steps every op
// first — each seeing the observations of the observe ops ahead of it — so
// nothing is journaled for an op the state would refuse, then persists and
// applies them in order: an acknowledged transition is durable before any
// in-memory state changes, and a failed persist leaves the session as it
// was, safe to retry. An observe op that landed ahead of a failed persist
// stays; it is durable, and the retry's observe op is a tail match. Every
// merge refits the worker model over the log it closes.
func (s *Session) journalLocked(ctx context.Context, ops ...store.Op) error {
	ts := make([]transition, len(ops))
	for i, op := range ops {
		t, err := s.stepLocked(op, ops[:i])
		if err != nil {
			return err
		}
		ts[i] = t
	}
	for _, t := range ts {
		if s.persist != nil {
			if err := s.persistOp(ctx, t.op); err != nil {
				return persistError(s.id, err)
			}
		}
		s.applyLocked(ctx, t)
		if t.op.Kind == store.OpMerge {
			s.refitLocked(ctx)
		}
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
	if s.sel != nil && slices.Equal(s.sel.Tasks, tasks) {
		return s.sel.TaskEntropy, nil
	}
	return core.TaskEntropy(s.run.Posterior, tasks, s.run.Pc)
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

// Posterior returns the current posterior distribution (immutable; safe to
// share).
func (s *Session) Posterior() *dist.Joint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run.Posterior
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
	marginals := s.run.Posterior.Marginals()
	gold := quality.Labels(marginals)
	cal, err := quality.Calibrate(marginals, gold, nBins)
	if err != nil {
		return nil, fmt.Errorf("service: calibration: %w", err)
	}
	workers, observed := s.workerInfosLocked(gold), 0
	for _, w := range workers {
		observed += w.Support
	}
	return &CalibrationResponse{
		ID:           s.id,
		Version:      s.run.Version,
		WorkerModel:  s.workers.Name(),
		Refits:       s.refits,
		Observations: observed,
		Calibration:  *cal,
		Workers:      workers,
	}, nil
}

// workerInfosLocked builds the per-worker view: support and consensus
// agreement from the observation log, the smoothed channel the next
// weighted merge will use, and a Wilson interval on the agreement rate.
// gold is the pseudo-gold labeling, each task's MAP label under the
// committed posterior (quality.Labels): it covers every task, and stepLocked
// admits no observe op outside them. Callers hold mu.
func (s *Session) workerInfosLocked(gold []bool) []WorkerInfo {
	tallies := crowd.Tally(journalAnswers(s.journal), func(task int) bool { return gold[task] })
	infos := make([]WorkerInfo, len(tallies))
	for i, t := range tallies {
		sens, spec, raw := s.workers.Channel(t.Worker)
		lo, hi := crowd.WilsonInterval(t.Correct, t.Support)
		infos[i] = WorkerInfo{
			Worker:   t.Worker,
			Accuracy: (sens + spec) / 2,
			Raw:      raw,
			Bias:     float64(t.Trues) / float64(t.Support),
			Support:  t.Support,
			Correct:  t.Correct,
			WilsonLo: lo,
			WilsonHi: hi,
		}
	}
	return infos
}

// WorkerStats returns the session's per-worker view without touching the
// TTL clock — the fleet aggregation sweeping every resident session must
// not keep them all alive forever.
func (s *Session) WorkerStats() []WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workerInfosLocked(quality.Labels(s.run.Posterior.Marginals()))
}

// record snapshots the session's full durable state: creation parameters
// plus the journal. The posterior itself is deliberately not serialized —
// recovery replays the journal through the same transition function,
// which is what makes a restored posterior bit-identical rather than
// merely close.
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
		Pc:         s.run.Pc,
		K:          s.k,
		Budget:     s.run.Budget,
		Seed:       s.seed,
		Prior:      s.priorRec,
		Created:    s.created,
		LastAccess: s.lastAccess,
		Ops:        slices.Clone(s.journal),
		LeaseEpoch: s.leaseEpoch,
	}
	if s.workers.Name() != WorkerModelFixed {
		// Recorded only when it carries information: a fixed session's
		// record stays byte-identical to one written before worker models
		// existed.
		rec.WorkerModel = s.workers.Name()
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
// session comes back without persist, tracer or event hooks, crediting
// unattributed judgments to anonWorker. A record with committed rounds
// comes back with its history deferred.
func restoreSession(rec *store.Record, anonWorker string, now time.Time) (*Session, error) {
	return replayRecord(rec, anonWorker, now, false)
}

// historyLocked builds the history an adopted session deferred, once:
// it replays the journal into a scratch session that records history and
// keeps the scratch's rounds and merges. Replay is deterministic, so they
// are the ones the live session recorded, its live merges since adoption
// included. Callers hold mu.
func (s *Session) historyLocked(ctx context.Context) {
	if !s.historyDeferred {
		return
	}
	_, sp := s.tracer.Start(ctx, "session.history")
	sp.SetAttr("session", s.id)
	sp.SetAttr("rounds", s.run.Version)
	defer sp.End()
	r, err := replayRecord(s.recordLocked(), s.anonWorker, s.lastAccess, true)
	if err != nil {
		// Unreachable: the journal is the one this session applied.
		panic(fmt.Sprintf("service: rebuilding the history of session %s: %v", s.id, err))
	}
	s.rounds, s.merges, s.historyDeferred = r.rounds, r.merges, false
	s.metrics.HistoryRebuilds.Add(1)
}

// replayRecord is restoreSession, recording the history as the ops apply
// when history is set and deferring it otherwise.
func replayRecord(rec *store.Record, anonWorker string, now time.Time, history bool) (*Session, error) {
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
	selector, err := core.NewSelector(core.SelectorKind(rec.Selector), rec.Seed)
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
		s.workers = crowd.NewWorkerModel(rec.WorkerModel, rec.Pc, rec.Seed)
	}
	s.anonWorker = anonWorker
	s.historyDeferred = !history && slices.ContainsFunc(rec.Ops, func(op store.Op) bool { return op.Kind == store.OpMerge })
	s.mu.Lock()
	defer s.mu.Unlock()
	// Conditioning ops that record their channels replay on them, so the
	// worker model is fitted once, at the end, over the observations the
	// last live refit saw: those journaled up to the last merge. Every merge
	// after an observation was such a refit. A journal with a conditioning
	// op that records none — written before channels were, or extended by a
	// binary that ignores them — refits after every merge, as live did.
	perMerge := s.workers.Name() != WorkerModelFixed && slices.ContainsFunc(rec.Ops, func(op store.Op) bool {
		return (op.Kind == store.OpMerge || op.Kind == store.OpPartial) && len(op.Sens) == 0
	})
	observed, fitted := false, 0
	for _, op := range rec.Ops {
		t, err := s.stepLocked(op, nil)
		if err != nil {
			return fail(fmt.Errorf("replaying %s op at version %d: %w", op.Kind, op.Version, err))
		}
		t.op = op // replay journals each op as recorded, rewriting none
		s.applyLocked(context.Background(), t)
		observed = observed || op.Kind == store.OpObserve
		switch {
		case op.Kind != store.OpMerge:
		case perMerge:
			s.refitLocked(context.Background())
		case observed && s.workers.Name() != WorkerModelFixed:
			s.refits++
			fitted = len(s.journal)
		}
	}
	// A history rebuild keeps only the rounds and the responses, which
	// read no worker estimate, so it skips the final fit. The per-merge
	// refits stay: those merges condition on them.
	if fitted > 0 && !history {
		s.workers.Fit(journalAnswers(s.journal[:fitted]))
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
