// Package client is the Go client for crowdfusiond, the CrowdFusion
// refinement service. It speaks the service's JSON wire format and adds a
// Refine helper that drives a whole select–ask–merge loop against any
// AnswerProvider (a live crowd bridge or the simulated platform).
//
//	c := client.New("http://localhost:8377")
//	info, _ := c.CreateSession(ctx, service.CreateSessionRequest{
//	        Marginals: []float64{0.5, 0.63, 0.58, 0.49},
//	        Pc:        0.8, K: 2, Budget: 6,
//	})
//	final, _ := c.Refine(ctx, info.ID, crowdProvider)
//
// # Routing
//
// Pointed at a sharded deployment with NewCluster, the client is
// ring-aware: it computes the same rendezvous placement the daemons use
// and sends each session's requests straight to the owner. When its view
// is stale it follows the service's machine-readable redirects (HTTP 421,
// code "not_owner", owner address in the envelope), and when a node stops
// answering it marks the node down for a while and walks the session's
// rendezvous rank order — the same order sessions re-home along — so
// failover needs no coordination: the client and the surviving daemons
// independently agree on where each session went.
//
// # Backpressure
//
// The service sheds load with 503 + Retry-After when its compute gate is
// saturated. The client honors that: requests are retried with bounded
// exponential backoff plus jitter, never sooner than the server asked.
// 503s without Retry-After (e.g. the session cap) are returned immediately
// — they are decisions, not congestion.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdfusion/internal/cluster"
	"crowdfusion/internal/quality"
	"crowdfusion/internal/service"
	"crowdfusion/internal/trace"
)

// Re-exported wire types, so callers need not import the internal package.
type (
	// CreateSessionRequest configures a new refinement session.
	CreateSessionRequest = service.CreateSessionRequest
	// SessionInfo is the client-visible session state.
	SessionInfo = service.SessionInfo
	// SelectResponse is one selected task batch.
	SelectResponse = service.SelectResponse
	// AnswersRequest submits crowd judgments for a selected batch.
	AnswersRequest = service.AnswersRequest
	// AnswersResponse is the refined state after a merge.
	AnswersResponse = service.AnswersResponse
	// WireJoint is the wire form of a joint distribution.
	WireJoint = service.WireJoint
	// RoundInfo is one merged round of a session trace.
	RoundInfo = service.RoundInfo
	// SessionEvent is one frame of a session's live event stream (Watch).
	SessionEvent = service.SessionEvent
	// PendingInfo describes a partially answered batch in flight.
	PendingInfo = service.PendingInfo
	// AnswerEvent is one judgment inside a pending batch.
	AnswerEvent = service.AnswerEvent
	// SessionSummary is one row of a session listing.
	SessionSummary = service.SessionSummary
	// ListSessionsResponse is one page of a session listing.
	ListSessionsResponse = service.ListSessionsResponse
	// Judgment is one attributed crowd judgment: a task, an answer, and
	// the worker (and optionally source platform) it came from.
	Judgment = service.Judgment
	// CalibrationResponse is a session's calibration report plus its
	// per-worker accuracy estimates.
	CalibrationResponse = service.CalibrationResponse
	// CalibrationBinInfo is one reliability-diagram bin.
	CalibrationBinInfo = quality.Bin
	// WorkerInfo is one worker's per-session accuracy estimate.
	WorkerInfo = service.WorkerInfo
	// WorkersResponse is the per-node worker fleet view.
	WorkersResponse = service.WorkersResponse
	// WorkerFleetInfo is one worker's aggregate across sessions.
	WorkerFleetInfo = service.WorkerFleetInfo
)

// Worker model names accepted by CreateSessionRequest.WorkerModel.
const (
	WorkerModelFixed      = service.WorkerModelFixed
	WorkerModelEM         = service.WorkerModelEM
	WorkerModelDawidSkene = service.WorkerModelDawidSkene
)

// Event types delivered by Watch, re-exported for consumers switching on
// SessionEvent.Type.
const (
	EventSnapshot = service.EventSnapshot
	EventSelect   = service.EventSelect
	EventPartial  = service.EventPartial
	EventMerge    = service.EventMerge
	EventRefit    = service.EventRefit
	EventDone     = service.EventDone
	EventExpire   = service.EventExpire
	EventDeleted  = service.EventDeleted
	EventRedirect = service.EventRedirect
	EventReset    = service.EventReset
	EventError    = service.EventError
)

// Machine-readable failure codes surfaced in APIError.Code.
const (
	CodeNotFound            = service.CodeNotFound
	CodeExpired             = service.CodeExpired
	CodeVersionConflict     = service.CodeVersionConflict
	CodeBudgetExhausted     = service.CodeBudgetExhausted
	CodeTooManySessions     = service.CodeTooManySessions
	CodeStoreFailure        = service.CodeStoreFailure
	CodeNotOwner            = service.CodeNotOwner
	CodeFenced              = service.CodeFenced
	CodeMethodNotAllowed    = service.CodeMethodNotAllowed
	CodeNoPendingBatch      = service.CodeNoPendingBatch
	CodeNotInBatch          = service.CodeNotInBatch
	CodeAnswerConflict      = service.CodeAnswerConflict
	CodeTooManySubscribers  = service.CodeTooManySubscribers
	CodeUnknownWorkerModel  = service.CodeUnknownWorkerModel
	CodeDuplicateTask       = service.CodeDuplicateTask
	CodeAttributionConflict = service.CodeAttributionConflict
)

// AnswerProvider supplies crowd answers for a batch of tasks — the same
// contract as core.Engine's provider, so crowd.Simulator and
// platform.Platform plug in directly.
type AnswerProvider interface {
	Answers(tasks []int) []bool
}

// ContextAnswerProvider is the context-aware upgrade of AnswerProvider.
// Refine detects it and threads its own context through, so a provider
// waiting on live crowd workers can abort when the refinement loop is
// cancelled instead of blocking the loop past its deadline.
type ContextAnswerProvider interface {
	AnswersContext(ctx context.Context, tasks []int) ([]bool, error)
}

// JudgmentProvider is the attributed upgrade of AnswerProvider: instead of
// bare booleans it returns one Judgment per task naming the worker who
// produced it. Refine detects it (taking precedence over the other
// provider shapes) and submits through the judgments form, so sessions
// running an em or dawid-skene worker model learn per-worker accuracy from
// the loop's own traffic. platform.Platform's Attributed view implements
// it by drawing each round's workers from its crowd pool.
type JudgmentProvider interface {
	JudgmentsContext(ctx context.Context, tasks []int) ([]Judgment, error)
}

// APIError is a non-2xx response from the service.
type APIError struct {
	StatusCode int
	Message    string
	// Code is the service's machine-readable failure class (the
	// service.Code* constants, e.g. "expired" when the session's state was
	// evicted from a volatile store, or "not_owner" when another node
	// serves the session), or empty for generic errors.
	Code string
	// Owner accompanies Codes "not_owner" and "fenced": the address of the
	// node that serves the session (for fenced, the current write-lease
	// holder). The routing layer follows it automatically.
	Owner string
	// Throttled reports that the response carried a Retry-After header —
	// the service's congestion signal, as opposed to a 503 that is a
	// decision (e.g. the session cap). The retry layer backs off and
	// retries throttled responses automatically.
	Throttled bool
	// RetryAfter is the parsed Retry-After value (zero when absent or 0).
	RetryAfter time.Duration
	// RequestID is the server-side request identifier for the failed
	// exchange (the envelope's request_id field, falling back to the
	// X-Request-Id response header). Quote it when reporting a failure —
	// it is the join key into the server's access log and /debug/traces.
	RequestID string
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("crowdfusiond: %s (HTTP %d, %s)", e.Message, e.StatusCode, e.Code)
	}
	return fmt.Sprintf("crowdfusiond: %s (HTTP %d)", e.Message, e.StatusCode)
}

// downTTL is how long a node that failed at the transport level is skipped
// before the client probes it again. Long enough to stop hammering a dead
// node on every request, short enough that a restarted node is picked back
// up about as fast as the daemons' own ring re-admits it.
const downTTL = 3 * time.Second

// Client talks to a crowdfusiond deployment — one node (New) or a sharded
// fleet (NewCluster). The zero value is not usable; construct with New or
// NewCluster. Safe for concurrent use.
type Client struct {
	peers []string // normalized base URLs, rendezvous-hashed for routing
	http  *http.Client

	// tracer mints the spans whose traceparent headers stitch client
	// attempts and server hops into one distributed trace. The default is
	// recorder-less — IDs flow, nothing is kept; WithTracer swaps in a
	// recording tracer.
	tracer *trace.Tracer

	// 503+Retry-After backoff policy.
	maxRetries  int
	backoffBase time.Duration
	backoffCap  time.Duration

	// rr spreads session creation across nodes.
	rr atomic.Uint64

	// downUntil is the transport-failure cache: nodes are skipped while
	// their entry is in the future. This is the client's "view of the
	// topology"; it refreshes by expiry, by a successful response, and by
	// not_owner redirects that point somewhere livelier.
	mu        sync.Mutex
	downUntil map[string]time.Time
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, test servers).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithTracer substitutes the client's tracer. Pass trace.New("client",
// trace.NewRecorder("client")) to keep spans in process (inspect them with
// the recorder's Snapshot); the default recorder-less tracer still
// propagates trace context on every request but records nothing.
func WithTracer(t *trace.Tracer) Option {
	return func(c *Client) {
		if t != nil {
			c.tracer = t
		}
	}
}

// WithBackoff tunes the 503+Retry-After retry policy: at most maxRetries
// retries, exponential from base up to cap, with jitter. maxRetries 0
// disables retrying (the 503 is returned to the caller); base and cap
// zero keep the defaults (4 retries, 100ms base, 2s cap).
func WithBackoff(maxRetries int, base, cap time.Duration) Option {
	return func(c *Client) {
		c.maxRetries = maxRetries
		if base > 0 {
			c.backoffBase = base
		}
		if cap > 0 {
			c.backoffCap = cap
		}
	}
}

// New builds a client for a single-node service at baseURL (e.g.
// "http://localhost:8377").
func New(baseURL string, opts ...Option) *Client {
	c, err := NewCluster([]string{baseURL}, opts...)
	if err != nil {
		// Preserve New's historical can't-fail signature: a malformed URL
		// surfaces on the first request instead.
		c = &Client{peers: []string{baseURL}}
		c.defaults()
		for _, o := range opts {
			o(c)
		}
	}
	return c
}

// NewCluster builds a ring-aware client for a sharded deployment. peers
// must list every daemon's advertised address — the same -peers list the
// daemons run with — because client and servers compute placement from the
// same normalized strings.
func NewCluster(peers []string, opts ...Option) (*Client, error) {
	if len(peers) == 0 {
		return nil, errors.New("client: at least one peer address is required")
	}
	normalized, err := cluster.NormalizeList(peers)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c := &Client{peers: normalized}
	c.defaults()
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

func (c *Client) defaults() {
	c.http = &http.Client{Timeout: 2 * time.Minute}
	c.tracer = trace.New("client", nil)
	c.maxRetries = 4
	c.backoffBase = 100 * time.Millisecond
	c.backoffCap = 2 * time.Second
	c.downUntil = make(map[string]time.Time)
}

// Peers returns the client's normalized view of the deployment.
func (c *Client) Peers() []string { return append([]string(nil), c.peers...) }

// markDown records a transport-level failure; the node is skipped until
// the entry expires.
func (c *Client) markDown(node string) {
	c.mu.Lock()
	c.downUntil[node] = time.Now().Add(downTTL)
	c.mu.Unlock()
}

// markUp clears a node's down entry after a successful exchange.
func (c *Client) markUp(node string) {
	c.mu.Lock()
	if len(c.downUntil) > 0 {
		delete(c.downUntil, node)
	}
	c.mu.Unlock()
}

// pick chooses the next node to try: the redirect hint when usable,
// otherwise the first candidate not currently marked down, otherwise the
// top candidate regardless (when everything looks down, the best guess is
// still the owner).
func (c *Client) pick(order []string, hint string) string {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if hint != "" && c.downUntil[hint].Before(now) {
		return hint
	}
	for _, p := range order {
		if c.downUntil[p].Before(now) {
			return p
		}
	}
	return order[0]
}

// backoffDelay computes the nth retry delay: exponential from base, capped,
// with jitter over the upper half so synchronized clients spread out, and
// never below the server's Retry-After floor.
func (c *Client) backoffDelay(n int, floor time.Duration) time.Duration {
	d := c.backoffBase
	for i := 1; i < n && d < c.backoffCap; i++ {
		d *= 2
	}
	if d > c.backoffCap {
		d = c.backoffCap
	}
	d = d/2 + rand.N(d/2+1)
	if floor > 0 && d < floor {
		d = floor
	}
	return d
}

// permanentError marks client-side failures (request encoding, response
// decoding) that no other node can fix — and that may follow a request the
// server already applied, so retrying elsewhere would duplicate side
// effects rather than recover from them. The routing layer returns them
// immediately instead of treating them as node death.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// sleepCtx waits d or until the context ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// doNode issues one JSON request against one node and decodes the response
// into out (when non-nil). Transport errors come back unwrapped inside the
// fmt error; service errors come back as *APIError.
func (c *Client) doNode(ctx context.Context, node, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return &permanentError{fmt.Errorf("client: encoding request: %w", err)}
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, node+path, rd)
	if err != nil {
		return &permanentError{fmt.Errorf("client: building request: %w", err)}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sp := trace.SpanFromContext(ctx); sp != nil {
		req.Header.Set("traceparent", sp.Context().Traceparent())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s%s: %w", method, node, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return decodeAPIError(resp)
	}
	c.markUp(node)
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// The server already processed the request (2xx); this failure is
		// ours, so it must not be mistaken for node death and replayed.
		return &permanentError{fmt.Errorf("client: decoding response: %w", err)}
	}
	return nil
}

// decodeAPIError turns a non-2xx response into an *APIError, reading the
// service's JSON envelope when one is present. It does not close the body.
func decodeAPIError(resp *http.Response) *APIError {
	var envelope service.ErrorResponse
	msg := resp.Status
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err == nil && envelope.Error != "" {
		msg = envelope.Error
	}
	throttled := false
	var retryAfter time.Duration
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		throttled = true
		retryAfter = time.Duration(secs) * time.Second
	}
	requestID := envelope.RequestID
	if requestID == "" {
		requestID = resp.Header.Get("X-Request-Id")
	}
	return &APIError{
		StatusCode: resp.StatusCode,
		Message:    msg,
		Code:       envelope.Code,
		Owner:      envelope.Owner,
		Throttled:  throttled,
		RetryAfter: retryAfter,
		RequestID:  requestID,
	}
}

// route drives one logical request to completion across the candidate
// order: follow not_owner and fenced redirects, fail over past dead nodes
// along the rendezvous rank (pausing between full cycles so daemon-side
// failure detection can catch up), and absorb saturation 503s with
// backoff. Any other error belongs to the caller.
func (c *Client) route(ctx context.Context, order []string, method, path string, body, out any) (rerr error) {
	// One span covers the logical request (joining any trace already on
	// ctx, e.g. Refine's root span), and each network attempt gets a child
	// span — so a redirect-then-retry shows up as two attempts under one
	// request, and the traceparent each server hop continues from is the
	// attempt that actually reached it.
	ctx, rsp := c.tracer.Start(ctx, "client "+method+" "+path)
	defer func() { rsp.SetError(rerr); rsp.End() }()
	// Enough attempts to redirect or fail over across the fleet a few
	// times with backoff in between; routing that hasn't settled by then
	// reports the last error rather than retrying forever.
	attempts := 4*len(order) + c.maxRetries + 4
	var lastErr error
	hint := ""   // owner address from a not_owner redirect
	cycles := 0  // unproductive passes, drives the failover backoff
	retries := 0 // 503+Retry-After retries, bounded by maxRetries
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		node := c.pick(order, hint)
		hint = ""
		attemptCtx, asp := c.tracer.Start(ctx, "client.attempt")
		asp.SetAttr("node", node)
		err := c.doNode(attemptCtx, node, method, path, body, out)
		if err != nil {
			var ae *APIError
			if errors.As(err, &ae) {
				asp.SetAttr("status", ae.StatusCode)
				if ae.Code != "" {
					asp.SetAttr("code", ae.Code)
				}
			}
			asp.SetError(err)
		}
		asp.End()
		if err == nil {
			return nil
		}
		lastErr = err
		var perm *permanentError
		if errors.As(err, &perm) {
			return err
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			if len(order) == 1 {
				// Single node, nothing to fail over to: surface transport
				// errors immediately (New's historical behavior).
				return err
			}
			c.markDown(node)
			cycles++
			if err := sleepCtx(ctx, c.backoffDelay(cycles, 0)); err != nil {
				return err
			}
			continue
		}
		switch {
		case apiErr.Code == service.CodeNotOwner && apiErr.Owner != "",
			apiErr.Code == service.CodeFenced:
			// Stale view: jump to the claimed owner. If redirects chase
			// each other (rings mid-convergence), pause each full lap so
			// the daemons' failure detectors can settle. A fenced answer
			// is the same situation proved differently — the node's write
			// lease was superseded — and is safe to retry elsewhere
			// because the fenced write was never applied; without an
			// owner hint it re-resolves along the rendezvous rank.
			if owner, err := cluster.Normalize(apiErr.Owner); err == nil && apiErr.Owner != "" {
				hint = owner
			} else {
				// No usable owner in the envelope: demote the bouncing node
				// so pick advances to the next peer in rank order instead of
				// retrying the same refusal.
				c.markDown(node)
			}
			cycles++
			if cycles%(len(order)+1) == 0 {
				if err := sleepCtx(ctx, c.backoffDelay(cycles/(len(order)+1), 0)); err != nil {
					return err
				}
			}
		case apiErr.StatusCode == http.StatusServiceUnavailable && apiErr.Throttled:
			// Saturation backpressure: retry the same node, never sooner
			// than it asked, with bounded exponential backoff + jitter.
			retries++
			if retries > c.maxRetries {
				return err
			}
			if err := sleepCtx(ctx, c.backoffDelay(retries, apiErr.RetryAfter)); err != nil {
				return err
			}
			hint = node
		default:
			return err
		}
	}
	return lastErr
}

// routed sends one session-addressed request along the session's
// rendezvous rank order — owner first, then the peers it would re-home to.
func (c *Client) routed(ctx context.Context, sessionID, method, path string, body, out any) error {
	return c.route(ctx, cluster.RankOrder(c.peers, sessionID), method, path, body, out)
}

// CreateSession creates a refinement session and returns its initial
// state. Any node can create (each mints IDs it owns), so creates are
// spread round-robin across the fleet.
func (c *Client) CreateSession(ctx context.Context, req CreateSessionRequest) (*SessionInfo, error) {
	start := int(c.rr.Add(1)-1) % len(c.peers)
	order := make([]string, 0, len(c.peers))
	order = append(order, c.peers[start:]...)
	order = append(order, c.peers[:start]...)
	var info SessionInfo
	if err := c.route(ctx, order, http.MethodPost, "/v1/sessions", &req, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// GetSession returns the current session state; withRounds includes the
// per-round trace.
func (c *Client) GetSession(ctx context.Context, id string, withRounds bool) (*SessionInfo, error) {
	path := "/v1/sessions/" + id
	if withRounds {
		path += "?rounds=true"
	}
	var info SessionInfo
	if err := c.routed(ctx, id, http.MethodGet, path, nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// DeleteSession removes a session.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.routed(ctx, id, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// Select asks for the next task batch. k > 0 overrides the session's
// per-round task count for this batch.
func (c *Client) Select(ctx context.Context, id string, k int) (*SelectResponse, error) {
	var resp SelectResponse
	req := service.SelectRequest{K: k}
	if err := c.routed(ctx, id, http.MethodPost, "/v1/sessions/"+id+"/select", &req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitAnswers merges an answered batch. version should be the Version
// from the SelectResponse the batch came from; it makes retries idempotent
// and stale submissions detectable (HTTP 409). Idempotency is what makes
// the routing layer's failover safe here: a merge resubmitted to a
// session's new owner after a node death replays, it never double-spends.
func (c *Client) SubmitAnswers(ctx context.Context, id string, tasks []int, answers []bool, version int) (*AnswersResponse, error) {
	var resp AnswersResponse
	req := AnswersRequest{Tasks: tasks, Answers: answers, Version: &version}
	if err := c.routed(ctx, id, http.MethodPost, "/v1/sessions/"+id+"/answers", &req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitAnswer submits a single judgment against the session's pending
// batch — the incremental counterpart of SubmitAnswers. The service
// journals the partial durably and returns the provisional posterior
// (Partial true, Version unchanged); the judgment that completes its batch
// commits the whole round exactly as one batched SubmitAnswers would, bit
// for bit, and the response reports Merged true. Resubmitting an
// already-journaled judgment replays idempotently, so the routing layer's
// failover is as safe here as for full batches.
//
// An optional trailing worker ID attributes the judgment: the service
// records it as an observation for the session's worker-accuracy model
// (and enforces that retries keep the same attribution). Omitted, the
// legacy unattributed form is sent unchanged.
func (c *Client) SubmitAnswer(ctx context.Context, id string, task int, answer bool, version int, worker ...string) (*AnswersResponse, error) {
	req := AnswersRequest{Version: &version, Partial: true}
	if len(worker) > 0 && worker[0] != "" {
		req.Judgments = []Judgment{{Task: task, Answer: answer, Worker: worker[0]}}
	} else {
		req.Tasks, req.Answers = []int{task}, []bool{answer}
	}
	var resp AnswersResponse
	if err := c.routed(ctx, id, http.MethodPost, "/v1/sessions/"+id+"/answers", &req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitJudgments merges a batch of attributed judgments — the canonical
// form of SubmitAnswers. version should be the Version from the
// SelectResponse the batch answers; partial journals the judgments against
// the pending batch instead of requiring full coverage. Retries are
// idempotent like SubmitAnswers, with one extra guarantee: a retry that
// re-attributes a committed judgment to a different worker is refused with
// code attribution_conflict rather than silently replayed.
func (c *Client) SubmitJudgments(ctx context.Context, id string, judgments []Judgment, version int, partial bool) (*AnswersResponse, error) {
	var resp AnswersResponse
	req := AnswersRequest{Judgments: judgments, Version: &version, Partial: partial}
	if err := c.routed(ctx, id, http.MethodPost, "/v1/sessions/"+id+"/answers", &req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Calibration fetches the session's calibration report: reliability bins
// for the posterior's marginals plus per-worker accuracy, bias, support,
// and Wilson bounds. bins <= 0 uses the server default (10).
func (c *Client) Calibration(ctx context.Context, id string, bins int) (*CalibrationResponse, error) {
	path := "/v1/sessions/" + id + "/calibration"
	if bins > 0 {
		path += "?bins=" + strconv.Itoa(bins)
	}
	var resp CalibrationResponse
	if err := c.routed(ctx, id, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Workers returns the worker fleet view. Each node reports the workers its
// resident sessions have observed; against a fleet every peer is asked and
// the rows merged (support-weighted accuracy, pooled counts), so a down
// node makes the call fail rather than silently shrink the roster.
func (c *Client) Workers(ctx context.Context) (*WorkersResponse, error) {
	var rows []WorkerFleetInfo
	sessions := 0
	for _, p := range c.peers {
		var page WorkersResponse
		if err := c.route(ctx, []string{p}, http.MethodGet, "/v1/workers", nil, &page); err != nil {
			return nil, err
		}
		sessions += page.Sessions
		rows = append(rows, page.Workers...)
	}
	return &WorkersResponse{Workers: service.PoolWorkers(rows), Sessions: sessions}, nil
}

// ListSessions returns one page of the deployment's sessions in ID order,
// resuming after the `after` cursor; limit <= 0 means the server default
// (100). Against a fleet every peer is asked for its owned sessions and the
// pages are merged, so a down node makes the listing fail rather than
// silently shrink.
func (c *Client) ListSessions(ctx context.Context, after string, limit int) (*ListSessionsResponse, error) {
	path := "/v1/sessions"
	q := url.Values{}
	if after != "" {
		q.Set("after", after)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	} else {
		limit = 100
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	all := []SessionSummary{}
	more := false
	for _, p := range c.peers {
		var page ListSessionsResponse
		if err := c.route(ctx, []string{p}, http.MethodGet, path, nil, &page); err != nil {
			return nil, err
		}
		all = append(all, page.Sessions...)
		if page.NextAfter != "" {
			more = true
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if len(all) > limit {
		all = all[:limit]
		more = true
	}
	resp := &ListSessionsResponse{Sessions: all}
	if more && len(all) > 0 {
		resp.NextAfter = all[len(all)-1].ID
	}
	return resp, nil
}

// Refine drives the full select–ask–merge loop: select a batch, obtain the
// crowd's answers from the provider, submit them, and repeat until the
// service reports the session done (budget exhausted or nothing uncertain
// left). It returns the final session state. A provider that also
// implements ContextAnswerProvider gets the loop's context and may abort
// the refinement by returning an error.
//
// The whole loop runs under one root span ("client.refine"), so every
// select, submit, retry, and redirect it makes — and every server-side
// span those requests produce — shares a single trace ID.
func (c *Client) Refine(ctx context.Context, id string, crowd AnswerProvider) (info *SessionInfo, err error) {
	ctx, sp := c.tracer.Start(ctx, "client.refine")
	sp.SetAttr("session", id)
	rounds := 0
	defer func() {
		sp.SetAttr("rounds", rounds)
		sp.SetError(err)
		sp.End()
	}()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sel, err := c.Select(ctx, id, 0)
		if err != nil {
			return nil, err
		}
		if sel.Done || len(sel.Tasks) == 0 {
			break
		}
		if jp, ok := crowd.(JudgmentProvider); ok {
			judgments, err := jp.JudgmentsContext(ctx, sel.Tasks)
			if err != nil {
				return nil, fmt.Errorf("client: judgment provider: %w", err)
			}
			if _, err := c.SubmitJudgments(ctx, id, judgments, sel.Version, false); err != nil {
				return nil, err
			}
			rounds++
			continue
		}
		var answers []bool
		if cp, ok := crowd.(ContextAnswerProvider); ok {
			answers, err = cp.AnswersContext(ctx, sel.Tasks)
			if err != nil {
				return nil, fmt.Errorf("client: answer provider: %w", err)
			}
		} else {
			answers = crowd.Answers(sel.Tasks)
		}
		if _, err := c.SubmitAnswers(ctx, id, sel.Tasks, answers, sel.Version); err != nil {
			return nil, err
		}
		rounds++
	}
	return c.GetSession(ctx, id, false)
}
