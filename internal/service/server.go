package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdfusion/internal/cluster"
	"crowdfusion/internal/core"
	"crowdfusion/internal/parallel"
	"crowdfusion/internal/store"
	"crowdfusion/internal/trace"
)

// Config tunes the service: the HTTP server and the session manager
// behind it. One zero-value rule covers every field: 0 means off for TTL
// and MaxSessions (no idle eviction, no session cap), and 0 (or nil, or
// empty) means the documented default for the rest. withDefaults is the
// only code that resolves them.
type Config struct {
	// TTL is the idle lifetime of a session: sessions untouched for TTL
	// are evicted by the janitor (0 = off). What eviction means depends
	// on the store: durable stores flush-and-unload (the session reloads
	// lazily on next touch), volatile stores drop the session for good
	// (later requests get ErrExpired).
	TTL time.Duration
	// MaxSessions caps live (in-memory) sessions (0 = off: unlimited).
	// Create and lazy reload fail with ErrTooManySessions at the cap.
	MaxSessions int
	// MaxConcurrent bounds compute-heavy requests (select/answers) in
	// flight; further requests wait up to QueueTimeout for a slot and
	// are then rejected with 503. The default is the machine width via
	// the internal/parallel pool, matching the compute the selection
	// kernel can actually use.
	MaxConcurrent int
	// QueueTimeout is how long a request waits for a compute slot before
	// the server sheds it (default 5s).
	QueueTimeout time.Duration
	// RequestTimeout bounds whole-request handling (default 60s).
	RequestTimeout time.Duration
	// Seed seeds Random selectors; each session derives its own stream
	// from it and a per-session counter.
	Seed int64
	// Store persists sessions across restarts (default a fresh volatile
	// store.NewMemory). The service takes ownership and closes it on
	// Close.
	Store store.SessionStore
	// MaxSubscribers caps concurrent event-stream (SSE) subscribers per
	// session (default DefaultMaxSubscribers). The cap bounds the fan-out
	// work a merge performs: one non-blocking channel send per subscriber.
	MaxSubscribers int
	// Cluster, when set, makes serving shard-aware: this node only serves
	// sessions the ring places on it, answers misrouted requests with
	// HTTP 421 code "not_owner" + the owner's address, and relinquishes
	// resident sessions on topology changes so the new owner can adopt
	// them from the shared Store by record replay. The ring's Self is the
	// owner recorded on this node's leases ("local" without a ring). The
	// caller keeps ring lifecycle (Start/Stop); the server registers its
	// rebalance hook via the ring's OnChange. Clustered deployments must
	// share a durable Store across nodes, or migrated sessions come up
	// empty.
	Cluster *cluster.Ring
	// Logger receives structured operational and access-log records
	// (evictions, recoveries, store failures, one line per request with
	// trace/request ids). The default discards them.
	Logger *slog.Logger
	// Tracer records spans for every request hop and around session
	// compute, persistence, leases and adoption. The default is a
	// recorder-less tracer, so request and trace IDs are always stamped
	// on responses even when nothing retains the spans; pass a tracer
	// built over a trace.Recorder to serve /debug/traces.
	Tracer *trace.Tracer

	// LeaseTTL enables per-session write leases with fencing epochs: the
	// node acquires a lease for every session it serves, stamps the epoch
	// on every write, and the store refuses writes from a deposed owner
	// with ErrFenced (HTTP 421, code "fenced"). 0 = off.
	LeaseTTL time.Duration
	// LeaseRenew is the lease heartbeat interval (default LeaseTTL/3,
	// floored at 10ms). Must be well under LeaseTTL: a node that misses
	// renewals for a full TTL can have its sessions stolen.
	LeaseRenew time.Duration
	// AnonWorker is the worker identity that unattributed (legacy
	// parallel-array) judgments are recorded under on sessions tracking
	// per-worker accuracy (default DefaultAnonWorker, "anon").
	AnonWorker string
	// Clock is the wall clock (default time.Now). Tests set a fake one;
	// the daemon's -clock-skew flag uses it to simulate a node whose
	// lease arithmetic runs ahead or behind.
	Clock func() time.Time

	// ownership is the session placement the manager consults (default
	// Cluster, or soleNode without one). Tests set fake partitions here.
	ownership ownership
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		// One slot per hardware thread the selection kernel could use;
		// parallel.Workers also floors the result at 1.
		c.MaxConcurrent = parallel.Workers(0, 1<<30)
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.Store == nil {
		c.Store = store.NewMemory()
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = DefaultMaxSubscribers
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.Tracer == nil {
		// Recorder-less: spans are minted (request/trace ids flow) but
		// dropped on End. Keeps the id contract independent of ops wiring.
		c.Tracer = trace.New("", nil)
	}
	if c.LeaseRenew <= 0 {
		c.LeaseRenew = c.LeaseTTL / 3
	}
	c.LeaseRenew = max(c.LeaseRenew, 10*time.Millisecond)
	if c.AnonWorker == "" {
		c.AnonWorker = DefaultAnonWorker
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.ownership == nil {
		c.ownership = soleNode{}
		if c.Cluster != nil {
			c.ownership = c.Cluster
		}
	}
	return c
}

// Server is the crowdfusiond HTTP service: routing, encode/decode at the
// trust boundary, backpressure, and operational endpoints over a Manager.
type Server struct {
	mgr  *Manager
	gate chan struct{} // compute-slot semaphore

	// inflight counts compute work (selects and merges) so Close can
	// drain them even if the HTTP listener has already stopped accepting.
	inflight sync.WaitGroup

	// streamStop ends every live SSE stream. Streams deliberately do NOT
	// register with the drain group — an idle subscriber would park Close
	// forever — so the daemon calls StopStreams from the HTTP server's
	// shutdown hook instead, and handlers also select on this channel.
	streamStop chan struct{}
	streamOnce sync.Once

	mu     sync.Mutex
	closed bool
}

// NewServer builds the service.
func NewServer(cfg Config) *Server {
	mgr := newManager(cfg)
	s := &Server{
		mgr:        mgr,
		gate:       make(chan struct{}, mgr.cfg.MaxConcurrent),
		streamStop: make(chan struct{}),
	}
	if ring := mgr.cfg.Cluster; ring != nil {
		// Eager rebalance: a topology change immediately hands off every
		// resident session the ring re-homed (at most ~K/N of them), so
		// the new owner adopts from a fresh flush instead of waiting for
		// this node's next misrouted touch.
		ring.SetOnChange(func() { mgr.RelinquishNotOwned() })
	}
	return s
}

// Metrics exposes the counter set (for tests and embedding processes).
func (s *Server) Metrics() *Metrics { return s.mgr.metrics }

// Manager exposes the session store (for tests and embedding processes).
func (s *Server) Manager() *Manager { return s.mgr }

// Close drains in-flight compute and stops the TTL janitor. Call after the
// HTTP server has stopped accepting connections (http.Server.Shutdown):
// together they guarantee every accepted merge either completed or was
// never applied when the process exits.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.StopStreams()
	s.inflight.Wait()
	s.mgr.Close()
}

// StopStreams ends every live event stream (idempotent). The daemon
// registers it with http.Server.RegisterOnShutdown so Shutdown's graceful
// drain isn't parked behind open SSE connections; Close also calls it for
// embedded servers that never ran an http.Server.
func (s *Server) StopStreams() {
	s.streamOnce.Do(func() { close(s.streamStop) })
}

// beginWork registers a unit of compute with the drain group, refusing
// once Close has started. The closed check and the Add happen under one
// lock — and Close flips closed under the same lock before calling Wait —
// so Add can never race a Wait that has already observed zero. This is
// what keeps a handler goroutine that http.TimeoutHandler detached (its
// response written, its work still pending) inside the drain guarantee:
// either it registered before Close and Close waits for it, or it finds
// closed set and never starts.
func (s *Server) beginWork() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Handler returns the service's HTTP handler. Request-response routes sit
// behind the request timeout and the error-envelope middleware; the event
// stream is routed on an outer mux because http.TimeoutHandler's response
// writer hides http.Flusher (and a timeout makes no sense for a stream).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/select", s.handleSelect)
	mux.HandleFunc("POST /v1/sessions/{id}/answers", s.handleAnswers)
	mux.HandleFunc("GET /v1/sessions/{id}/calibration", s.handleCalibration)
	mux.HandleFunc("GET /v1/workers", s.handleWorkers)
	// Non-GET hits on the events path fall through the outer mux's "/"
	// route to here; register the path methodless so they get a proper 405
	// with Allow instead of a 404.
	mux.HandleFunc("/v1/sessions/{id}/events", s.handleEventsBadMethod)
	timed := http.TimeoutHandler(mux, s.mgr.cfg.RequestTimeout,
		`{"error":"request timed out"}`)
	outer := http.NewServeMux()
	outer.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	outer.Handle("/", envelopeErrors(timed))
	return s.observe(outer)
}

// requestIDKey carries the per-request ID (this hop's root span ID) through
// handler contexts, so error envelopes can echo it without re-deriving.
type requestIDKey struct{}

// requestIDFrom returns the request ID stamped by the observe middleware,
// or "" outside a traced request (direct handler tests).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusWriter captures the response status for the access log. It must
// keep http.Flusher visible — the SSE handler type-asserts for it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// observe is the per-request observability middleware: it continues the
// caller's W3C trace (or starts a fresh one), stamps X-Request-Id and
// traceparent on the response before the handler runs, and emits one
// structured access-log line per request: at INFO, except a successful
// GET /healthz, which every peer sends every heartbeat and which logs at
// DEBUG so it cannot bury the request lines. The request ID is this hop's
// root span ID — short enough for support tickets, and it joins the
// access log, the error envelope, and /debug/traces on one key.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		var sp *trace.Span
		name := r.Method + " " + r.URL.Path
		if remote, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
			ctx, sp = s.mgr.cfg.Tracer.StartRemote(ctx, remote, name)
		} else {
			ctx, sp = s.mgr.cfg.Tracer.Start(ctx, name)
		}
		reqID := sp.SpanID()
		ctx = context.WithValue(ctx, requestIDKey{}, reqID)
		// Stamped before the handler writes: headers after WriteHeader are
		// lost, and redirects/errors need the ids most.
		w.Header().Set("X-Request-Id", reqID)
		w.Header().Set("traceparent", sp.Context().Traceparent())
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		dur := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		sp.SetAttr("status", sw.status)
		sp.End()
		level := slog.LevelInfo
		if r.Method == http.MethodGet && r.URL.Path == "/healthz" && sw.status < 300 {
			level = slog.LevelDebug
		}
		s.mgr.cfg.Logger.Log(ctx, level, "http request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(dur.Microseconds())/1000,
			"trace_id", sp.TraceID(),
			"request_id", reqID,
		)
	})
}

// envelopeErrors rewrites the plain-text 404/405 defaults that ServeMux
// (and http.Error) produce into the service's JSON ErrorResponse envelope,
// so every error a client can provoke is machine-readable. Responses that
// already declare a JSON body — everything the handlers write — pass
// through untouched, as does the Allow header ServeMux sets on 405.
func envelopeErrors(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w, req: r}, r)
	})
}

type envelopeWriter struct {
	http.ResponseWriter
	req         *http.Request
	wroteHeader bool
	intercepted bool // swallowing a plain-text default body
}

func (w *envelopeWriter) WriteHeader(status int) {
	if w.wroteHeader {
		w.ResponseWriter.WriteHeader(status)
		return
	}
	w.wroteHeader = true
	replaceable := (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(w.Header().Get("Content-Type"), "application/json")
	if !replaceable {
		w.ResponseWriter.WriteHeader(status)
		return
	}
	w.intercepted = true
	code := CodeNotFound
	msg := fmt.Sprintf("service: no route for %s %s", w.req.Method, w.req.URL.Path)
	if status == http.StatusMethodNotAllowed {
		code = CodeMethodNotAllowed
		msg = fmt.Sprintf("service: method %s not allowed for %s", w.req.Method, w.req.URL.Path)
	}
	w.Header().Set("Content-Type", "application/json")
	w.ResponseWriter.WriteHeader(status)
	data, _ := json.MarshalIndent(ErrorResponse{
		Error: msg, Code: code, RequestID: requestIDFrom(w.req.Context()),
	}, "", "  ")
	_, _ = w.ResponseWriter.Write(append(data, '\n'))
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.intercepted {
		// The plain-text default body was replaced by the envelope; report
		// it written so http.Error's caller sees no failure.
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

// writeJSON encodes v with the status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

// writeError maps service errors to HTTP statuses and machine-readable
// codes inside the uniform envelope, echoing the request ID so a client
// report joins straight to this hop's access log and trace.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	reqID := requestIDFrom(r.Context())
	var notOwner *NotOwnerError
	if errors.As(err, &notOwner) {
		// 421 Misdirected Request: the session lives on another node. The
		// envelope carries the owner's address so ring-aware clients hop
		// straight there instead of probing the peer list.
		writeJSON(w, http.StatusMisdirectedRequest, ErrorResponse{
			Error: err.Error(), Code: CodeNotOwner, Owner: notOwner.Owner, RequestID: reqID})
		return
	}
	var fenced *FencedError
	if errors.As(err, &fenced) {
		// Also 421, but with code "fenced": the lease fence — not ring
		// placement — refused this node. Same client response either way:
		// re-resolve the owner (the envelope names the lease holder when
		// known) and retry there; the refused write was never applied.
		writeJSON(w, http.StatusMisdirectedRequest, ErrorResponse{
			Error: err.Error(), Code: CodeFenced, Owner: fenced.Owner, RequestID: reqID})
		return
	}
	status := http.StatusBadRequest
	code := ""
	switch {
	case errors.Is(err, ErrNotFound):
		status, code = http.StatusNotFound, CodeNotFound
	case errors.Is(err, ErrExpired):
		// 410 Gone, not 404: the ID was real, its state aged out. Clients
		// distinguish "retry with the right ID" from "start a new session".
		status, code = http.StatusGone, CodeExpired
	case errors.Is(err, ErrVersionConflict):
		status, code = http.StatusConflict, CodeVersionConflict
	case errors.Is(err, ErrBudgetExhausted):
		status, code = http.StatusConflict, CodeBudgetExhausted
	case errors.Is(err, ErrTooManySessions):
		status, code = http.StatusServiceUnavailable, CodeTooManySessions
	case errors.Is(err, ErrNoPendingBatch):
		status, code = http.StatusConflict, CodeNoPendingBatch
	case errors.Is(err, ErrNotInBatch):
		status, code = http.StatusBadRequest, CodeNotInBatch
	case errors.Is(err, ErrAnswerConflict):
		status, code = http.StatusConflict, CodeAnswerConflict
	case errors.Is(err, ErrUnknownWorkerModel):
		status, code = http.StatusBadRequest, CodeUnknownWorkerModel
	case errors.Is(err, ErrDuplicateTask):
		status, code = http.StatusBadRequest, CodeDuplicateTask
	case errors.Is(err, ErrAttributionConflict):
		status, code = http.StatusConflict, CodeAttributionConflict
	case errors.Is(err, ErrTooManySubscribers):
		status, code = http.StatusTooManyRequests, CodeTooManySubscribers
	case errors.Is(err, ErrStore):
		status, code = http.StatusInternalServerError, CodeStoreFailure
	case errors.Is(err, errSessionRetired):
		// Only reachable when the session retires twice in a row (onSession
		// already re-resolved once): retryable.
		status = http.StatusServiceUnavailable
	case errors.Is(err, core.ErrTooManyTasks), errors.Is(err, core.ErrBadAccuracy),
		errors.Is(err, core.ErrNoTasks):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Code: code, RequestID: reqID})
}

// decodeJSON strictly decodes a request body into v: one JSON value with
// no unknown fields, followed by nothing but white space.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: decoding request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("service: decoding request: trailing data after the JSON value")
	}
	return nil
}

// admit admits one unit of compute (create, select, answers): it registers
// with the drain group, refusing once Close has started, then claims a
// compute slot, waiting up to QueueTimeout — the backpressure path that
// keeps heavy selection traffic from piling up unboundedly behind the
// per-session locks. On refusal it writes the 503 itself and returns nil;
// otherwise the caller defers the returned done.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (done func()) {
	if !s.beginWork() {
		writeShuttingDown(w, r)
		return nil
	}
	done = func() {
		<-s.gate
		s.inflight.Done()
	}
	select {
	case s.gate <- struct{}{}:
		return done
	default:
	}
	t := time.NewTimer(s.mgr.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case s.gate <- struct{}{}:
		return done
	case <-r.Context().Done():
	case <-t.C:
	}
	s.inflight.Done()
	s.mgr.metrics.RequestsRejected.Add(1)
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
		Error: "service: saturated, retry later", RequestID: requestIDFrom(r.Context())})
	return nil
}

// writeShuttingDown is the refusal for work arriving after Close began.
func writeShuttingDown(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
		Error: "service: shutting down", RequestID: requestIDFrom(r.Context())})
}

// writeSessionError is writeError for a request on session {id}, after
// the bookkeeping for 421 outcomes: bump the misroute counter for
// not_owner, and retire the local instance on fenced — a session whose
// lease another node took must not serve another request from memory.
// Only the instance at the refused write's epoch retires: a late signal
// must not retire a successor adopted since. (The fenced metric is counted
// where the refusal happened: the instrumented store for fenced writes,
// acquireLease for bounced adoptions.)
func (s *Server) writeSessionError(w http.ResponseWriter, r *http.Request, err error) {
	var notOwner *NotOwnerError
	var fenced *FencedError
	switch {
	case errors.As(err, &notOwner):
		s.mgr.metrics.NotOwnerRejects.Add(1)
	case errors.As(err, &fenced):
		s.mgr.RetireFenced(r.PathValue("id"), fenced.epoch)
	}
	writeError(w, r, err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{
		"status":        "ok",
		"sessions_live": s.mgr.Len(),
	}
	if s.mgr.cfg.LeaseTTL > 0 {
		resp["leases"] = map[string]any{
			"held":  s.mgr.LeasesHeld(),
			"owner": s.mgr.cfg.ownership.Self(),
			"ttl":   s.mgr.cfg.LeaseTTL.String(),
			"renew": s.mgr.cfg.LeaseRenew.String(),
		}
	}
	if ring := s.mgr.cfg.Cluster; ring != nil {
		resp["cluster"] = map[string]any{
			"self":        ring.Self(),
			"peers":       ring.Peers(),
			"peers_alive": len(ring.Alive()),
			"epoch":       ring.Epoch(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.mgr.metrics.WritePrometheus(w, s.mgr.Len(), s.mgr.LeasesHeld(), len(s.mgr.Workers().Workers)); err != nil {
		return
	}
	if ring := s.mgr.cfg.Cluster; ring != nil {
		fmt.Fprintf(w, "# HELP crowdfusion_cluster_peers Static cluster size.\n"+
			"# TYPE crowdfusion_cluster_peers gauge\ncrowdfusion_cluster_peers %d\n", ring.Size())
		fmt.Fprintf(w, "# HELP crowdfusion_cluster_peers_alive Peers currently considered alive.\n"+
			"# TYPE crowdfusion_cluster_peers_alive gauge\ncrowdfusion_cluster_peers_alive %d\n", len(ring.Alive()))
		fmt.Fprintf(w, "# HELP crowdfusion_cluster_epoch Topology epoch (advances on peer death/revival).\n"+
			"# TYPE crowdfusion_cluster_epoch gauge\ncrowdfusion_cluster_epoch %d\n", ring.Epoch())
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	// Prior construction can materialize a 2^n-world product
	// distribution, so creation is compute like select/merge.
	done := s.admit(w, r)
	if done == nil {
		return
	}
	defer done()

	sess, err := s.mgr.Create(r.Context(), &req)
	if err != nil {
		writeError(w, r, err)
		return
	}
	s.mgr.metrics.SessionsCreated.Add(1)
	writeJSON(w, http.StatusCreated, sess.Info(r.Context(), s.mgr.Now(), false))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.mgr.Get(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeSessionError(w, r, err)
		return
	}
	withRounds := strings.EqualFold(r.URL.Query().Get("rounds"), "true") ||
		r.URL.Query().Get("rounds") == "1"
	writeJSON(w, http.StatusOK, sess.Info(r.Context(), s.mgr.Now(), withRounds))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	ok, err := s.mgr.Delete(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeSessionError(w, r, err)
		return
	}
	if !ok {
		writeError(w, r, ErrNotFound)
		return
	}
	s.mgr.metrics.SessionsDeleted.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	sess, err := s.mgr.Get(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeSessionError(w, r, err)
		return
	}
	var req SelectRequest
	if r.ContentLength != 0 {
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, r, err)
			return
		}
	}
	if err := req.Validate(); err != nil {
		writeError(w, r, err)
		return
	}
	done := s.admit(w, r)
	if done == nil {
		return
	}
	defer done()

	start := time.Now()
	var cached bool
	resp, err := onSession(r.Context(), s.mgr, r.PathValue("id"), sess, func(sess *Session) (resp *SelectResponse, err error) {
		resp, cached, err = sess.Select(r.Context(), s.mgr.Now(), req.K)
		return resp, err
	})
	if err != nil {
		s.writeSessionError(w, r, err)
		return
	}
	s.mgr.metrics.SelectDuration.observe(time.Since(start))
	s.mgr.metrics.SelectsServed.Add(1)
	if cached {
		s.mgr.metrics.SelectCacheHits.Add(1)
	} else {
		s.mgr.metrics.SelectBatchWidth.observe(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	sess, err := s.mgr.Get(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeSessionError(w, r, err)
		return
	}
	var req AnswersRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	done := s.admit(w, r)
	if done == nil {
		return
	}
	defer done()

	// A reloaded successor has the full durable history, so idempotency
	// and version checks behave as if the eviction never happened.
	start := time.Now()
	resp, err := onSession(r.Context(), s.mgr, r.PathValue("id"), sess, func(sess *Session) (*AnswersResponse, error) {
		return sess.Merge(r.Context(), s.mgr.Now(), &req)
	})
	if err != nil {
		s.writeSessionError(w, r, err)
		return
	}
	s.mgr.metrics.MergeDuration.observe(time.Since(start))
	switch {
	case resp.Merged:
		s.mgr.metrics.MergesApplied.Add(1)
		if resp.Partial {
			// The partial that completed its batch and committed it.
			s.mgr.metrics.PartialAnswers.Add(1)
		}
	case resp.Partial:
		s.mgr.metrics.PartialAnswers.Add(1)
	default:
		s.mgr.metrics.MergeReplays.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCalibration serves GET /v1/sessions/{id}/calibration: the session's
// posterior calibration bins (against its own pseudo-gold labeling) plus
// per-worker accuracy, bias, support, and Wilson bounds. ?bins= overrides
// the bin count (default 10).
func (s *Server) handleCalibration(w http.ResponseWriter, r *http.Request) {
	sess, err := s.mgr.Get(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeSessionError(w, r, err)
		return
	}
	bins := 10
	if v := r.URL.Query().Get("bins"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 || n > 100 {
			writeError(w, r, fmt.Errorf("service: bins %q outside 2..100", v))
			return
		}
		bins = n
	}
	resp, err := onSession(r.Context(), s.mgr, r.PathValue("id"), sess, func(sess *Session) (*CalibrationResponse, error) {
		return sess.Calibration(s.mgr.Now(), bins)
	})
	if err != nil {
		s.writeSessionError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleWorkers serves GET /v1/workers: the per-node fleet view of every
// worker observed across resident sessions. Deliberately node-local — it
// aggregates what this node is serving, not the whole ring; operators
// scrape each node and join on worker ID.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Workers())
}

// handleList serves the paginated session listing: IDs ascending, owned
// sessions only, resuming after the `after` cursor.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 1000 {
			writeError(w, r, fmt.Errorf("service: limit %q outside 1..1000", v))
			return
		}
		limit = n
	}
	resp, err := s.mgr.ListSessions(q.Get("after"), limit)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEventsBadMethod answers non-GET methods on the events path. The
// outer mux routes only "GET …/events"; everything else falls through to
// the inner mux, which would otherwise 404 this perfectly real path.
func (s *Server) handleEventsBadMethod(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Allow", "GET")
	writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{
		Error:     fmt.Sprintf("service: method %s not allowed for %s", r.Method, r.URL.Path),
		Code:      CodeMethodNotAllowed,
		RequestID: requestIDFrom(r.Context()),
	})
}

// streamKeepalive is the SSE comment-ping cadence; it keeps idle streams
// alive through proxies and lets the handler notice dead peers.
const streamKeepalive = 15 * time.Second

// handleEvents serves GET /v1/sessions/{id}/events: a Server-Sent Events
// stream of session state transitions. Routed outside the timeout handler
// (it needs http.Flusher and has no natural deadline) and outside the
// compute slot gate (it does no posterior math — fan-out cost was already
// bounded by the hub's non-blocking sends).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.streamStop:
		writeShuttingDown(w, r)
		return
	default:
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError,
			ErrorResponse{Error: "service: connection does not support streaming"})
		return
	}
	var lastID uint64
	hasLast := false
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, r, fmt.Errorf("service: Last-Event-ID %q is not an event sequence", v))
			return
		}
		lastID, hasLast = n, true
	}
	id := r.PathValue("id")
	sub, err := s.mgr.Subscribe(r.Context(), id, lastID, hasLast)
	if err != nil {
		s.writeSessionError(w, r, err)
		return
	}
	defer sub.cancel()
	s.mgr.metrics.StreamsServed.Add(1)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass frames through
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// lastSeq tracks the newest delivered event so a synthesized reset
	// frame can carry a resumable id.
	var lastSeq uint64
	write := func(ev SessionEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return false
		}
		lastSeq = ev.Seq
		fl.Flush()
		return true
	}
	for _, ev := range sub.backlog {
		if !write(ev) {
			return
		}
	}
	keepalive := time.NewTicker(streamKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case ev := <-sub.ch:
			if !write(ev) {
				return
			}
		case <-sub.done:
			// Detached: session deleted/expired/redirected, hub shutdown, or
			// this subscriber fell behind. Drain what was buffered before the
			// detach (terminal goodbyes arrive this way), then tell a dropped
			// consumer to reconnect and resume.
			for {
				select {
				case ev := <-sub.ch:
					if !write(ev) {
						return
					}
					continue
				default:
				}
				break
			}
			if sub.dropped {
				write(SessionEvent{
					Seq:         lastSeq,
					Type:        EventReset,
					SessionInfo: SessionInfo{ID: id},
					Error:       "subscriber fell behind; reconnect with Last-Event-ID to resume",
				})
			}
			return
		case <-r.Context().Done():
			return
		case <-s.streamStop:
			return
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
