// Package service implements crowdfusiond's HTTP/JSON refinement service:
// a concurrent session manager over the CrowdFusion select–ask–merge loop.
//
// A session wraps one refinement loop (one book, one output distribution).
// Clients create it from fused marginals or an explicit joint, repeatedly
// ask for the next entropy-maximizing task batch, post the crowd's answers,
// and read the refined posterior — the paper's Figure 1 loop turned into a
// long-running network service in the style of gMission-like platforms.
//
// The package splits into four layers:
//
//   - wire.go: the JSON wire format (joints, tasks, answers) with
//     validation at the trust boundary;
//   - session.go: the per-session serialized state machine
//     (select → await → merge) with selection caching and idempotent
//     merges;
//   - manager.go / lifecycle.go: the ownership-aware session cache —
//     manager.go gates every entry point on "does this node serve this
//     ID?" (minting only self-owned IDs at create time, redirecting the
//     rest with not_owner) over a pluggable store.SessionStore;
//     lifecycle.go owns the resident set: single-flight lazy loads, TTL
//     eviction (flush-and-unload on durable stores, expiry on volatile
//     ones), and relinquishment when ownership moves;
//   - server.go / metrics.go: the HTTP layer — routing, backpressure,
//     request timeouts, /healthz, /metrics, graceful drain.
//
// Sharding: plugged into an internal/cluster ring, a fleet of daemons
// partitions the session space deterministically by session ID. Misrouted
// requests get HTTP 421 with code "not_owner" and the owner's address;
// when a node dies or the topology changes, the new owner rebuilds each
// re-homed session from the shared store by record replay — migration and
// crash recovery are deliberately the same code path.
//
// Durability: every merge is persisted through the session store before it
// is acknowledged (fsynced, when the store is durable), so a SIGKILL never
// loses an acknowledged answer set; on restart the manager replays the
// stored op log through the same conditioning arithmetic and recovers each
// session bit-identically.
package service

import (
	"errors"
	"fmt"
	"math"
	"time"

	"crowdfusion/internal/core"
	"crowdfusion/internal/dist"
)

// Worker-model names accepted by CreateSessionRequest.WorkerModel. The
// model decides how crowd accuracy enters the merge: fixed uses the
// configured scalar pc for every judgment (the paper's Definition 2
// channel); em and dawid-skene estimate per-worker accuracy online from
// attributed judgments and condition each judgment on its worker's
// current estimate instead.
const (
	WorkerModelFixed      = "fixed"
	WorkerModelEM         = "em"
	WorkerModelDawidSkene = "dawid-skene"
)

// Typed judgment-validation failures, surfaced as machine-readable
// envelope codes (see the Code constants).
var (
	// ErrUnknownWorkerModel rejects a session create naming a worker model
	// other than fixed, em, or dawid-skene.
	ErrUnknownWorkerModel = errors.New("service: unknown worker model")
	// ErrDuplicateTask rejects a submission carrying two judgments for one
	// task: a single submission is one judgment per task (redundant
	// judgments arrive as separate submissions).
	ErrDuplicateTask = errors.New("service: duplicate task in one submission")
	// ErrAttributionConflict rejects a retry whose judgments re-attribute
	// an already-committed answer set to different workers: the original
	// attribution is journaled and cannot be rewritten by a replay.
	ErrAttributionConflict = errors.New("service: retry re-attributes committed judgments")
)

// WireJoint is the JSON wire representation of a dist.Joint: the sparse
// support as parallel world/probability vectors. Worlds are bitmask values
// (bit i set ⇔ fact i judged true); probabilities are non-negative weights
// that the receiver normalizes, so senders need not renormalize after
// truncation or arithmetic.
type WireJoint struct {
	N      int       `json:"n"`
	Worlds []uint64  `json:"worlds"`
	Probs  []float64 `json:"probs"`
}

// NewWireJoint converts a distribution to its wire form. The slices are
// fresh copies: mutating them cannot corrupt the (immutable, shared-slice)
// Joint.
func NewWireJoint(j *dist.Joint) WireJoint {
	worlds := make([]uint64, j.SupportSize())
	for i, w := range j.Worlds() {
		worlds[i] = uint64(w)
	}
	return WireJoint{
		N:      j.N(),
		Worlds: worlds,
		Probs:  append([]float64(nil), j.Probs()...),
	}
}

// Joint validates the wire form and rebuilds the distribution. All
// structural validation (fact count bounds, world range, weight sanity,
// positive total mass) is delegated to dist.New — the same gate every
// in-process constructor passes through — so a joint that arrived over the
// wire obeys exactly the invariants an in-process one does.
func (w WireJoint) Joint() (*dist.Joint, error) {
	if len(w.Worlds) != len(w.Probs) {
		return nil, fmt.Errorf("service: joint has %d worlds but %d probs", len(w.Worlds), len(w.Probs))
	}
	ws := make([]dist.World, len(w.Worlds))
	for i, v := range w.Worlds {
		ws[i] = dist.World(v)
	}
	j, err := dist.New(w.N, ws, w.Probs)
	if err != nil {
		return nil, err
	}
	return j, nil
}

// CreateSessionRequest is the body of POST /v1/sessions. Exactly one of
// Marginals (per-fact correctness probabilities, expanded to the product
// distribution) or Joint (an explicit sparse support) must be set.
type CreateSessionRequest struct {
	// Marginals initializes the prior as the independent product
	// distribution — the bridge from fusion methods that output only
	// per-fact confidences.
	Marginals []float64 `json:"marginals,omitempty"`
	// Joint initializes the prior from an explicit sparse joint, for
	// callers that track output correlations (e.g. mutually exclusive
	// author sets).
	Joint *WireJoint `json:"joint,omitempty"`
	// Selector names the task-selection strategy: OPT, Approx,
	// Approx+Prune, Approx+Pre, Approx+Prune+Pre, Random. Default
	// Approx+Prune+Pre.
	Selector string `json:"selector,omitempty"`
	// Pc is the crowd accuracy assumed by selection and merging,
	// in [0.5, 1].
	Pc float64 `json:"pc"`
	// K is the number of tasks per round (per select call). 1..20.
	K int `json:"k"`
	// Budget is the total number of tasks the session may ask.
	Budget int `json:"budget"`
	// Seed seeds the Random selector; ignored by deterministic
	// selectors.
	Seed int64 `json:"seed,omitempty"`
	// WorkerModel selects how crowd accuracy enters merging: "fixed"
	// (default) uses Pc for every judgment; "em" and "dawid-skene"
	// estimate per-worker accuracy online from attributed judgments and
	// weight each judgment by its worker's current estimate.
	WorkerModel string `json:"worker_model,omitempty"`
}

// Validate checks everything except the prior itself (which is validated
// during construction by dist.New / dist.Independent).
func (r *CreateSessionRequest) Validate() error {
	if len(r.Marginals) == 0 && r.Joint == nil {
		return errors.New("service: session needs marginals or an explicit joint")
	}
	if len(r.Marginals) > 0 && r.Joint != nil {
		return errors.New("service: marginals and joint are mutually exclusive")
	}
	return validateParams(r.Pc, r.K, r.Budget, r.WorkerModel)
}

// validateParams checks a session's scalar creation parameters. Creation
// and record restore share it, so a record no create request could have
// produced fails to restore instead of coming back half-configured.
func validateParams(pc float64, k, budget int, workerModel string) error {
	if pc < 0.5 || pc > 1 || math.IsNaN(pc) {
		return fmt.Errorf("service: pc %v outside [0.5, 1]", pc)
	}
	if k <= 0 {
		return fmt.Errorf("service: k %d must be positive", k)
	}
	if k > core.MaxTasksPerRound {
		return fmt.Errorf("service: k %d exceeds the per-round limit %d (the answer space is 2^k)",
			k, core.MaxTasksPerRound)
	}
	if budget <= 0 {
		return fmt.Errorf("service: budget %d must be positive", budget)
	}
	if k > budget {
		return fmt.Errorf("service: k %d exceeds budget %d", k, budget)
	}
	switch workerModel {
	case "", WorkerModelFixed, WorkerModelEM, WorkerModelDawidSkene:
	default:
		return fmt.Errorf("%w: %q (want %q, %q, or %q)", ErrUnknownWorkerModel,
			workerModel, WorkerModelFixed, WorkerModelEM, WorkerModelDawidSkene)
	}
	return nil
}

// SessionInfo is the client-visible session state, returned by GET
// /v1/sessions/{id} and embedded in mutation responses.
type SessionInfo struct {
	ID string `json:"id"`
	// Version counts applied merges; it names the posterior a selection
	// or answer set refers to.
	Version int `json:"version"`
	// N is the number of facts.
	N int `json:"n"`
	// SupportSize is the posterior's sparse support size.
	SupportSize int `json:"support_size"`
	// Marginals are the posterior per-fact correctness probabilities.
	Marginals []float64 `json:"marginals"`
	// Entropy is H(O) of the posterior in bits; Utility is -H(O)
	// (Definition 4).
	Entropy float64 `json:"entropy"`
	Utility float64 `json:"utility"`
	// Spent and Budget account tasks asked against the session budget.
	Spent  int `json:"spent"`
	Budget int `json:"budget"`
	// K and Pc echo the session configuration.
	K        int     `json:"k"`
	Pc       float64 `json:"pc"`
	Selector string  `json:"selector"`
	// WorkerModel names how crowd accuracy enters merging ("fixed", "em",
	// "dawid-skene").
	WorkerModel string `json:"worker_model"`
	// Done reports that no further refinement will happen: the budget is
	// exhausted or the last selection found nothing uncertain to ask.
	Done bool `json:"done"`
	// Pending describes the partially answered batch, when an incremental
	// answer sequence is in flight. While it is set, Marginals/Entropy/
	// Utility reflect the *provisional* posterior — the round-start
	// posterior conditioned on the judgments received so far — whereas
	// Version still names the last committed posterior.
	Pending *PendingInfo `json:"pending,omitempty"`
	// Rounds is the per-round trace (tasks, answers, posterior entropy).
	Rounds []RoundInfo `json:"rounds,omitempty"`
}

// RoundInfo is one merged round in a session's trace.
type RoundInfo struct {
	Round   int     `json:"round"`
	Tasks   []int   `json:"tasks"`
	Answers []bool  `json:"answers"`
	CumCost int     `json:"cum_cost"`
	Entropy float64 `json:"entropy"`
	TaskH   float64 `json:"task_entropy"`
}

// SelectRequest is the body of POST /v1/sessions/{id}/select. K optionally
// overrides the session's per-round task count for this batch only.
type SelectRequest struct {
	K int `json:"k,omitempty"`
}

// Validate bounds the per-batch override the same way session creation
// bounds K, so an oversized override is a 400 up front rather than a
// selector failure.
func (r *SelectRequest) Validate() error {
	if r.K < 0 {
		return fmt.Errorf("service: k override %d must not be negative", r.K)
	}
	if r.K > core.MaxTasksPerRound {
		return fmt.Errorf("service: k override %d exceeds the per-round limit %d",
			r.K, core.MaxTasksPerRound)
	}
	return nil
}

// SelectResponse is the next task batch. Version names the posterior the
// batch was selected against; answers should be submitted with the same
// version. Repeating select without an intervening merge returns the same
// batch from cache (Cached=true).
type SelectResponse struct {
	Tasks []int `json:"tasks"`
	// TaskEntropy is H(T), the selection objective, for the batch.
	TaskEntropy float64 `json:"task_entropy"`
	Version     int     `json:"version"`
	Cached      bool    `json:"cached,omitempty"`
	// Done is set when the batch is empty: budget exhausted or nothing
	// uncertain remains.
	Done bool `json:"done,omitempty"`
}

// Judgment is one attributed crowd answer: Worker said Answer for Task.
// It is the canonical unit of the answers wire shape; the parallel
// Tasks/Answers arrays of AnswersRequest are the unattributed
// compatibility form.
type Judgment struct {
	Task   int  `json:"task"`
	Answer bool `json:"answer"`
	// Worker identifies the answering worker. Empty means anonymous: the
	// judgment is attributed to the node's configured anonymous worker,
	// exactly as the legacy parallel-array form is.
	Worker string `json:"worker,omitempty"`
	// Source optionally names the platform the judgment came from
	// ("mturk", "gmission", …). Recorded, never interpreted.
	Source string `json:"source,omitempty"`
	// ObservedAt optionally timestamps the judgment at its source.
	// Recorded for audit; server-side ordering uses arrival order.
	ObservedAt time.Time `json:"observed_at,omitzero"`
}

// AnswersRequest is the body of POST /v1/sessions/{id}/answers: the
// crowd's judgments for a previously selected batch, in exactly one of
// two forms — Judgments (canonical, worker-attributed) or the parallel
// Tasks/Answers arrays (the legacy compatibility form, attributed to the
// configured anonymous worker). Version is the posterior version from the
// SelectResponse; when omitted (nil) the current version is assumed and
// duplicate answer sets are treated as retries (see Session.Merge for the
// idempotency contract).
type AnswersRequest struct {
	// Judgments is the canonical, attributed form: one judgment per task.
	Judgments []Judgment `json:"judgments,omitempty"`
	// Tasks/Answers are the compatibility form: parallel arrays with no
	// worker identity. Mutually exclusive with Judgments.
	Tasks   []int  `json:"tasks,omitempty"`
	Answers []bool `json:"answers,omitempty"`
	Version *int   `json:"version,omitempty"`
	// Partial marks the judgments as a subset of the pending selected
	// batch rather than a complete answer set. Partial submissions
	// accumulate in a journaled ledger; when the ledger covers the batch,
	// the merge commits with a posterior bit-identical to submitting the
	// whole batch at once, and budget is spent exactly once, at commit.
	Partial bool `json:"partial,omitempty"`
}

// Validate checks the shape of the request; semantic validation (range,
// membership) happens against the session's distribution during merging.
// Duplicate tasks within one submission are a shape error in both forms:
// a submission is one judgment per task (ErrDuplicateTask, surfaced as
// code "duplicate_task").
func (r *AnswersRequest) Validate() error {
	if len(r.Judgments) > 0 {
		if len(r.Tasks) != 0 || len(r.Answers) != 0 {
			return errors.New("service: judgments and tasks/answers are mutually exclusive")
		}
		seen := make(map[int]bool, len(r.Judgments))
		for _, j := range r.Judgments {
			if seen[j.Task] {
				return fmt.Errorf("%w: task %d judged twice", ErrDuplicateTask, j.Task)
			}
			seen[j.Task] = true
		}
		return nil
	}
	if len(r.Tasks) == 0 {
		return errors.New("service: answers request needs at least one judgment")
	}
	if len(r.Tasks) != len(r.Answers) {
		return fmt.Errorf("service: %d tasks but %d answers", len(r.Tasks), len(r.Answers))
	}
	// The legacy form deliberately has no duplicate-task check: partial
	// submissions have always tolerated repeated judgments (matching
	// duplicates replay, contradictions map to ErrAnswerConflict in the
	// ledger), and the compatibility contract keeps that behavior intact.
	// Only the judgments form — the canonical API — rejects duplicates.
	return nil
}

// flatten returns the request's judgment set in parallel-array form:
// tasks/answers always, workers (empty slots replaced by anon) and
// sources only for the attributed Judgments form. attributed reports
// which form the request used — attribution conflicts on retry are
// checked only for explicitly attributed submissions.
func (r *AnswersRequest) flatten(anon string) (tasks []int, answers []bool, workers, sources []string, attributed bool) {
	if len(r.Judgments) == 0 {
		return r.Tasks, r.Answers, nil, nil, false
	}
	tasks = make([]int, len(r.Judgments))
	answers = make([]bool, len(r.Judgments))
	workers = make([]string, len(r.Judgments))
	hasSource := false
	for i, j := range r.Judgments {
		tasks[i] = j.Task
		answers[i] = j.Answer
		workers[i] = j.Worker
		if workers[i] == "" {
			workers[i] = anon
		}
		if j.Source != "" {
			hasSource = true
		}
	}
	if hasSource {
		sources = make([]string, len(r.Judgments))
		for i, j := range r.Judgments {
			sources[i] = j.Source
		}
	}
	return tasks, answers, workers, sources, true
}

// AnswersResponse reports the refined state after a merge. Merged is false
// when the request was recognized as a retry of an already-applied answer
// set and served idempotently from the merge log.
type AnswersResponse struct {
	SessionInfo
	Merged bool `json:"merged"`
	// Partial reports that the request joined an incremental answer
	// sequence: judgments were recorded (or replayed) against the pending
	// batch. When Merged is also true, this request's judgments completed
	// the batch and the merge committed. A retry served from the
	// idempotency log echoes the retrying request's own partial flag.
	Partial bool `json:"partial,omitempty"`
}

// AnswerEvent is one crowd judgment: worker said Answer for task Task.
type AnswerEvent struct {
	Task   int  `json:"task"`
	Answer bool `json:"answer"`
}

// PendingInfo describes a partially answered batch: the selection being
// answered one judgment at a time, which judgments have arrived, and which
// tasks remain before the batch commits.
type PendingInfo struct {
	// Version is the committed posterior version the batch was selected
	// against — the version the commit will advance from.
	Version int `json:"version"`
	// Tasks is the full selected batch, in selection order.
	Tasks []int `json:"tasks"`
	// Answered lists the judgments received so far, in batch order.
	Answered []AnswerEvent `json:"answered"`
	// Remaining lists the batch tasks still awaiting judgments.
	Remaining []int `json:"remaining"`
}

// Machine-readable error codes carried by ErrorResponse.Code, for clients
// that branch on failure kind without parsing messages. Absent (empty) for
// generic validation errors.
const (
	CodeNotFound        = "not_found"
	CodeExpired         = "expired" // the TTL janitor dropped the session from a volatile store
	CodeVersionConflict = "version_conflict"
	CodeBudgetExhausted = "budget_exhausted"
	CodeTooManySessions = "too_many_sessions"
	CodeStoreFailure    = "store_failure"
	// CodeNotOwner (HTTP 421) means another node serves this session; the
	// envelope's Owner field carries its address. Clients retry there.
	CodeNotOwner = "not_owner"
	// CodeFenced (HTTP 421) means this node's write lease for the session
	// was superseded — the store's fencing epoch refused the write or the
	// adoption. Owner carries the current lease holder when known. Clients
	// handle it exactly like not_owner: re-resolve and retry; the refused
	// write was never applied, so the retry is idempotent-safe.
	CodeFenced = "fenced"
	// CodeMethodNotAllowed (HTTP 405) accompanies an Allow header listing
	// the methods the route supports.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNoPendingBatch rejects a partial answer when no selection is
	// outstanding at the current version — select a batch first.
	CodeNoPendingBatch = "no_pending_batch"
	// CodeNotInBatch rejects a partial answer naming a task outside the
	// pending selected batch.
	CodeNotInBatch = "not_in_batch"
	// CodeAnswerConflict rejects a judgment that contradicts one already
	// journaled for the same task in the pending batch.
	CodeAnswerConflict = "answer_conflict"
	// CodeTooManySubscribers (HTTP 429) caps per-session SSE fan-out.
	CodeTooManySubscribers = "too_many_subscribers"
	// CodeUnknownWorkerModel rejects a session create naming a worker
	// model other than fixed, em, or dawid-skene.
	CodeUnknownWorkerModel = "unknown_worker_model"
	// CodeDuplicateTask rejects a submission with two judgments for one
	// task — one submission is one judgment per task.
	CodeDuplicateTask = "duplicate_task"
	// CodeAttributionConflict (HTTP 409) rejects a retry whose judgments
	// re-attribute an already-committed answer set to different workers.
	CodeAttributionConflict = "attribution_conflict"
)

// ErrorResponse is the uniform error envelope of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code, when set, names the failure class (see the Code constants).
	Code string `json:"code,omitempty"`
	// Owner accompanies code "not_owner": the base address of the node
	// that serves the session this request addressed.
	Owner string `json:"owner,omitempty"`
	// RequestID is the server-assigned id of the failed request (also sent
	// as the X-Request-Id response header). Quote it when reporting a
	// failure: it joins the response to the server's logs and to the span
	// in /debug/traces.
	RequestID string `json:"request_id,omitempty"`
}

// SSE event types carried by GET /v1/sessions/{id}/events. Each event's
// data is a SessionEvent; the SSE id field is the event's Seq, which a
// reconnecting subscriber echoes as Last-Event-ID to resume.
const (
	// EventSnapshot opens a stream (or re-opens one whose resume point
	// fell outside the replay window): the full current state.
	EventSnapshot = "snapshot"
	// EventSelect announces a freshly selected batch (Tasks).
	EventSelect = "select"
	// EventPartial announces journaled judgments for the pending batch;
	// the payload carries the provisional posterior.
	EventPartial = "partial"
	// EventMerge announces a committed answer set and the new posterior.
	EventMerge = "merge"
	// EventDone announces the done latch: nothing uncertain remains or the
	// budget is exhausted.
	EventDone = "done"
	// EventExpire terminates the stream: the TTL janitor dropped the
	// session from a volatile store.
	EventExpire = "expire"
	// EventDeleted terminates the stream: the session was deleted.
	EventDeleted = "deleted"
	// EventRedirect terminates the stream: ownership moved; Owner carries
	// the address of the node now serving the session. Re-subscribe there.
	EventRedirect = "redirect"
	// EventReset terminates the stream server-side: this subscriber fell
	// behind and events were dropped. Reconnect (Last-Event-ID resumes
	// from the replay window, or a fresh snapshot is sent).
	EventReset = "reset"
	// EventError is synthesized by the Go client's Watch when a stream
	// fails terminally; the server never sends it. Error carries details.
	EventError = "error"
	// EventRefit announces re-estimated worker accuracies on an em or
	// dawid-skene session: a merge committed and the worker model was
	// refit over all accumulated observations. The payload's SessionInfo
	// is the committed state; Refits counts refits so far.
	EventRefit = "refit"
)

// SessionEvent is one state-transition delta on the session event stream.
// Seq is the per-session stream sequence number (the SSE id); the embedded
// SessionInfo is the state after the transition — provisional while a
// partial sequence is in flight, committed otherwise.
type SessionEvent struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
	SessionInfo
	// Tasks accompanies select events: the batch just chosen.
	Tasks []int `json:"tasks,omitempty"`
	// Refits accompanies refit events: refits performed so far.
	Refits int `json:"refits,omitempty"`
	// Owner accompanies redirect events: where to re-subscribe.
	Owner string `json:"owner,omitempty"`
	// Error accompanies client-synthesized error events.
	Error string `json:"error,omitempty"`
	// TraceID identifies the request whose handling caused this transition
	// (the W3C trace id), so a streamed merge can be joined to the trace —
	// and the client retry chain — that produced it. Empty for transitions
	// without an originating request (janitor expiry, lease loss).
	TraceID string `json:"trace_id,omitempty"`
}

// SessionSummary is one row of GET /v1/sessions: enough to triage a node's
// sessions without loading them.
type SessionSummary struct {
	ID      string `json:"id"`
	Version int    `json:"version"`
	Spent   int    `json:"spent"`
	Budget  int    `json:"budget"`
	Done    bool   `json:"done"`
	// Resident reports whether the session is live in memory. Entropy is
	// present only for resident sessions — computing it for an unloaded
	// session would force a full record replay per listed row.
	Resident bool     `json:"resident"`
	Entropy  *float64 `json:"entropy,omitempty"`
}

// ListSessionsResponse is the paginated body of GET /v1/sessions.
// Sessions are ordered by ID; NextAfter, when set, is the cursor for the
// next page (pass it as ?after=).
type ListSessionsResponse struct {
	Sessions  []SessionSummary `json:"sessions"`
	NextAfter string           `json:"next_after,omitempty"`
}

// WorkerInfo is one worker's state under a session's worker model: the
// accuracy estimate the merge path currently uses, its unsmoothed input,
// and how much evidence backs it.
type WorkerInfo struct {
	Worker string `json:"worker"`
	// Accuracy is the smoothed estimate the weighted merge conditions on:
	// the raw model estimate shrunk toward the session's configured pc by
	// a Beta prior, so zero-support workers sit exactly at pc.
	Accuracy float64 `json:"accuracy"`
	// Raw is the model's unsmoothed estimate (EM or Dawid–Skene). Equal
	// to Accuracy under the fixed model.
	Raw float64 `json:"raw"`
	// Bias is the worker's tendency toward answering true: the fraction
	// of the worker's judgments that were "true", 0.5 at zero support.
	Bias float64 `json:"bias"`
	// Support is the number of judgments observed from this worker;
	// Correct counts those agreeing with the session's pseudo-gold (the
	// current posterior's majority judgment per fact).
	Support int `json:"support"`
	Correct int `json:"correct"`
	// WilsonLo/WilsonHi bound the pseudo-gold agreement rate at ~95%
	// confidence (Wilson score interval); [0, 1] at zero support.
	WilsonLo float64 `json:"wilson_lo"`
	WilsonHi float64 `json:"wilson_hi"`
}

// CalibrationBinInfo is one reliability bin of a session's calibration
// report: predicted-probability range, how many fact predictions landed
// in it, and how the mean prediction compares to the empirical rate.
type CalibrationBinInfo struct {
	Lo            float64 `json:"lo"`
	Hi            float64 `json:"hi"`
	Count         int     `json:"count"`
	MeanPredicted float64 `json:"mean_predicted"`
	EmpiricalRate float64 `json:"empirical_rate"`
}

// CalibrationResponse is the body of GET /v1/sessions/{id}/calibration:
// a reliability diagram of the session posterior against its own
// pseudo-gold (each fact's current majority judgment), plus the
// per-worker accuracy estimates behind the weighted merge path. It is a
// diagnostic: with true gold unavailable online, a sharply miscalibrated
// report signals a pc or worker-model misfit worth investigating.
type CalibrationResponse struct {
	ID          string `json:"id"`
	Version     int    `json:"version"`
	WorkerModel string `json:"worker_model"`
	// Refits counts worker-model refits performed so far (0 under the
	// fixed model).
	Refits int `json:"refits"`
	// Observations counts attributed judgments accumulated so far.
	Observations int `json:"observations"`
	// Bins is the reliability diagram over per-fact marginals; ECE is the
	// expected calibration error (bin-weighted |predicted − empirical|),
	// Brier the mean squared error against pseudo-gold, Total the number
	// of fact predictions binned.
	Bins  []CalibrationBinInfo `json:"bins"`
	ECE   float64              `json:"ece"`
	Brier float64              `json:"brier"`
	Total int                  `json:"total"`
	// Workers lists per-worker estimates sorted by worker ID.
	Workers []WorkerInfo `json:"workers"`
}

// WorkerFleetInfo is one worker's aggregate state across every resident
// session on a node.
type WorkerFleetInfo struct {
	Worker string `json:"worker"`
	// Sessions counts resident sessions with observations from this
	// worker.
	Sessions int `json:"sessions"`
	// Support is the worker's total judgment count across those sessions;
	// Correct sums per-session pseudo-gold agreement.
	Support int `json:"support"`
	Correct int `json:"correct"`
	// Accuracy is the support-weighted mean of the worker's per-session
	// smoothed estimates.
	Accuracy float64 `json:"accuracy"`
	// WilsonLo/WilsonHi bound the pooled pseudo-gold agreement rate.
	WilsonLo float64 `json:"wilson_lo"`
	WilsonHi float64 `json:"wilson_hi"`
}

// WorkersResponse is the body of GET /v1/workers: the node-local fleet
// view over resident sessions, sorted by worker ID. It is per-node by
// design — sessions are sharded, so a cluster-wide view is the union of
// each node's response.
type WorkersResponse struct {
	Workers []WorkerFleetInfo `json:"workers"`
	// Sessions counts the resident sessions scanned.
	Sessions int `json:"sessions"`
}
