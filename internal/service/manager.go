package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"crowdfusion/internal/crowd"
	"crowdfusion/internal/eval"
	"crowdfusion/internal/store"
	"crowdfusion/internal/trace"
)

// Manager errors, mapped to HTTP statuses by the server layer.
var (
	// ErrNotFound is returned for unknown session IDs.
	ErrNotFound = errors.New("service: session not found")
	// ErrExpired is returned for a session the TTL janitor evicted from a
	// volatile store: the ID was valid but its state is gone for good.
	// Durable stores never produce it — eviction there only unloads, and
	// the session reloads lazily on the next touch.
	ErrExpired = errors.New("service: session expired (evicted after idle TTL; state was not persisted)")
	// ErrTooManySessions is returned when creating (or lazily reloading)
	// a session would exceed the configured cap — the store-level
	// backpressure signal.
	ErrTooManySessions = errors.New("service: session limit reached")
)

// Ownership is the manager's view of session placement: which sessions
// this node serves, and where the others live. A nil Ownership means this
// node owns everything — the single-node deployment. cluster.Ring is the
// production implementation; tests substitute arbitrary partitions.
//
// Ownership answers are allowed to change over time (nodes die, rings
// heal). The manager re-checks on every touch and relinquishes resident
// sessions it no longer owns, so placement changes move sessions with at
// most one flush-and-reload — never a fork.
type Ownership interface {
	// Owns reports whether this node currently serves id.
	Owns(id string) bool
	// Owner returns the address of the node that currently serves id.
	Owner(id string) string
}

// NotOwnerError reports that this node does not serve the session; the
// request must be retried against Owner. The server layer maps it to
// HTTP 421 with the machine-readable not_owner code, which is what lets
// clients re-route instead of parsing prose.
type NotOwnerError struct {
	ID    string
	Owner string
}

// Error implements error.
func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("service: session %s is owned by %s, not this node", e.ID, e.Owner)
}

// FencedError reports that this node's write lease for the session was
// superseded (or could not be acquired because a live holder has it):
// another node serves the session now. The difference from NotOwnerError
// is the evidence — not_owner comes from placement (the ring says the ID
// hashes elsewhere), fenced comes from the lease fence in the store (a
// write or takeover was actually refused). Both are mapped to HTTP 421 so
// clients handle them identically: re-resolve the owner and retry there.
type FencedError struct {
	ID    string
	Owner string // current lease holder, "" when unknown
}

// Error implements error.
func (e *FencedError) Error() string {
	if e.Owner == "" {
		return fmt.Sprintf("service: session %s write fenced: lease superseded", e.ID)
	}
	return fmt.Sprintf("service: session %s write fenced: lease held by %s", e.ID, e.Owner)
}

// ManagerConfig tunes the session manager.
type ManagerConfig struct {
	// TTL is the idle lifetime of a session: sessions untouched for TTL
	// are evicted by the janitor. Zero means no eviction. What eviction
	// means depends on the store: durable stores flush-and-unload (the
	// session reloads lazily on next touch), volatile stores drop the
	// session for good (later requests get ErrExpired).
	TTL time.Duration
	// MaxSessions caps live (in-memory) sessions (0 = unlimited). Create
	// and lazy reload fail with ErrTooManySessions at the cap.
	MaxSessions int
	// Seed seeds Random selectors; each session derives its own stream
	// from it and a per-session counter.
	Seed int64
	// Store persists sessions. Nil means a fresh volatile store
	// (store.NewMemory) — PR 3's in-memory-only behavior. The manager
	// takes ownership: Manager.Close closes the store.
	Store store.SessionStore
	// Ownership partitions the session space across nodes. Nil means this
	// node owns every session. When set, Create only mints IDs this node
	// owns, and every touch of a non-owned ID fails with *NotOwnerError
	// (after relinquishing any resident instance).
	Ownership Ownership
	// MaxSubscribers caps concurrent event-stream subscribers per session
	// (0 = DefaultMaxSubscribers). The cap bounds fan-out work on the
	// merge path, which does one non-blocking channel send per subscriber.
	MaxSubscribers int
	// LeaseTTL enables write-lease fencing: the manager acquires a lease
	// (TTL-long, renewed on a heartbeat) for every session it serves, and
	// the store refuses writes stamped with a superseded lease epoch. Zero
	// disables leasing — writes carry epoch 0 and the store lets them
	// through as long as no lease was ever taken.
	LeaseTTL time.Duration
	// LeaseRenew is the heartbeat interval for lease renewal. Zero defaults
	// to LeaseTTL/3. Must be well under LeaseTTL: a node that misses
	// renewals for a full TTL can have its sessions stolen.
	LeaseRenew time.Duration
	// Self is this node's advertised address, recorded as the lease owner
	// so peers (and operators reading lease files) can see who holds a
	// session. Defaults to "local" for single-node deployments.
	Self string
	// Logger, when set, receives structured operational log records
	// (evictions, recoveries, relinquishments, store failures) with
	// session/trace attrs. Nil discards them.
	Logger *slog.Logger
	// Tracer, when set, records spans around session compute, persistence,
	// lease transitions, relinquishment, and adoption replay. Nil disables
	// span recording (ids still flow through contexts untouched).
	Tracer *trace.Tracer
	// AnonWorker is the worker identity unattributed (legacy parallel-array)
	// judgments are recorded under on sessions whose worker model tracks
	// observations. Empty defaults to DefaultAnonWorker.
	AnonWorker string
	// now overrides the clock in tests.
	now func() time.Time
}

// Manager is the ownership-aware session cache in front of the
// SessionStore. All methods are safe for concurrent use.
//
// It layers three concerns, outermost first:
//
//   - ownership (this file): every entry point resolves "does this node
//     serve this ID?" before touching state, minting only owned IDs at
//     create time and redirecting the rest with *NotOwnerError;
//   - residency (lifecycle.go): live sessions are in-memory (selection
//     caches, mutexes, idempotency log hot), with single-flight lazy
//     loads, TTL eviction, and relinquishment on ownership change;
//   - durability (store.SessionStore): every state transition is
//     persisted before it is acknowledged, so any node can rebuild any
//     session by record replay — the property that makes both crash
//     recovery and cross-node migration the same code path.
type Manager struct {
	cfg    ManagerConfig
	store  store.SessionStore
	log    *slog.Logger
	tracer *trace.Tracer

	shards [sessionShards]shard

	countMu sync.Mutex
	count   int   // live sessions across shards
	created int64 // sessions ever created (seeds Random selector streams)

	// tombs records sessions the janitor dropped from a volatile store,
	// so later requests can be answered with ErrExpired rather than a
	// generic not-found. Pruned on a horizon of tombstoneTTLs·TTL.
	tombMu sync.Mutex
	tombs  map[string]time.Time

	// events fans state transitions out to SSE subscribers. Feeds are
	// keyed by session ID, so the registry survives unload/reload; the
	// terminate paths (delete, volatile expiry, relinquish) close streams
	// with a final event.
	events *eventHub

	janitorStop chan struct{}
	janitorDone chan struct{}

	// held tracks the lease epochs this node holds, keyed by session ID —
	// the renewal loop's work list and the leases_held gauge. An entry
	// exists iff this node believes it holds the session's lease; the
	// store's lease record is the ground truth the renewal loop checks
	// against.
	leaseMu   sync.Mutex
	held      map[string]uint64
	leaseStop chan struct{}
	leaseDone chan struct{}

	// Metrics hooks, set by the server. evicted reports janitor activity
	// (dropped=true when the state was discarded, false when it was
	// flushed to a durable store); recovered reports one lazy reload;
	// relinquished reports sessions handed to another owner; fencedBounced
	// reports an acquisition bounced off a live holder's lease (store-level
	// fenced writes are counted by the instrumented store instead).
	evicted       func(n int, dropped bool)
	recovered     func()
	relinquished  func(n int)
	fencedBounced func()
	// refitObserved reports one worker-accuracy refit and its latency;
	// weightedMerged reports one posterior conditioning that used
	// per-worker accuracy estimates instead of the scalar pc.
	refitObserved  func(d time.Duration)
	weightedMerged func()
}

// attach wires a session built by restoreSession into this manager: metric
// hooks, the lease epoch its writes are stamped with, the tracer, the
// persist hook and the event sink — the same wiring for created and
// reloaded sessions, done before the instance is published.
func (m *Manager) attach(s *Session, epoch uint64) {
	s.onRefit = m.refitObserved
	s.onWeightedMerge = m.weightedMerged
	s.leaseEpoch = epoch
	s.tracer = m.tracer
	s.persist = func(op store.Op) error { return m.store.Append(s.id, op) }
	s.emit = m.eventSink(s.id)
}

// NewManager builds a manager over cfg.Store and starts its TTL janitor
// (when TTL > 0).
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	m := &Manager{cfg: cfg, store: cfg.Store, log: cfg.Logger, tracer: cfg.Tracer}
	if m.store == nil {
		m.store = store.NewMemory()
	}
	if m.log == nil {
		m.log = slog.New(slog.DiscardHandler)
	}
	m.tombs = make(map[string]time.Time)
	m.held = make(map[string]uint64)
	m.events = newEventHub(cfg.MaxSubscribers)
	for i := range m.shards {
		m.shards[i].sessions = make(map[string]*Session)
		m.shards[i].loading = make(map[string]*loadOp)
	}
	if cfg.LeaseTTL > 0 {
		interval := cfg.LeaseRenew
		if interval <= 0 {
			interval = cfg.LeaseTTL / 3
		}
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		m.cfg.LeaseRenew = interval
		m.leaseStop = make(chan struct{})
		m.leaseDone = make(chan struct{})
		go m.leaseLoop(interval)
	}
	if cfg.TTL > 0 {
		m.janitorStop = make(chan struct{})
		m.janitorDone = make(chan struct{})
		interval := cfg.TTL / 4
		if interval < time.Second {
			interval = time.Second
		}
		go m.janitor(interval)
	}
	return m
}

// Store exposes the underlying session store (for tests and embedders).
func (m *Manager) Store() store.SessionStore { return m.store }

// owns reports whether this node serves id (nil Ownership owns all).
func (m *Manager) owns(id string) bool {
	return m.cfg.Ownership == nil || m.cfg.Ownership.Owns(id)
}

// checkOwnership gates every session-addressed entry point. For an ID this
// node does not serve it relinquishes any resident instance (the bounded
// part of rebalancing: a topology change moves only the sessions it
// re-homed, each with one flush) and returns the redirect.
func (m *Manager) checkOwnership(ctx context.Context, id string) error {
	if m.owns(id) {
		return nil
	}
	m.relinquish(ctx, id)
	return &NotOwnerError{ID: id, Owner: m.cfg.Ownership.Owner(id)}
}

// Close stops the janitor, flushes every live session to a durable store
// (merges are already durable — this captures final access times and done
// latches), and closes the store. Sessions remain readable in memory
// (tests inspect them); the process is expected to exit shortly after.
func (m *Manager) Close() {
	if m.janitorStop != nil {
		close(m.janitorStop)
		<-m.janitorDone
		m.janitorStop = nil
	}
	if m.leaseStop != nil {
		close(m.leaseStop)
		<-m.leaseDone
		m.leaseStop = nil
	}
	m.events.closeAll()
	if m.store.Durable() {
		for i := range m.shards {
			sh := &m.shards[i]
			sh.mu.RLock()
			resident := make([]*Session, 0, len(sh.sessions))
			for _, s := range sh.sessions {
				resident = append(resident, s)
			}
			sh.mu.RUnlock()
			for _, s := range resident {
				if err := s.flush(m.store); err != nil {
					m.log.Error("final flush failed", "session", s.ID(), "err", err)
				}
			}
		}
	}
	// Release held leases after the final flush (release keeps the epoch,
	// so our own flush is never fenced by it) — a clean shutdown lets the
	// next owner adopt immediately instead of waiting out the TTL.
	m.leaseMu.Lock()
	held := m.held
	m.held = make(map[string]uint64)
	m.leaseMu.Unlock()
	for id, epoch := range held {
		if err := m.store.ReleaseLease(id, m.leaseSelf(), epoch); err != nil {
			m.log.Warn("lease release failed", "session", id, "err", err)
		}
	}
	if err := m.store.Close(); err != nil {
		m.log.Error("closing store failed", "err", err)
	}
}

// newID returns a 128-bit random hex session ID.
func newID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: generating session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// placementTries bounds the owned-ID rejection sampling in Create. IDs are
// uniform, so each draw lands on this node with probability ~1/N; even a
// 256-node ring fails 1024 draws with probability (1-1/256)^1024 ≈ 2%,
// and any realistic ring effectively never does.
const placementTries = 1024

// placeID mints a session ID this node owns. Placement is a pure function
// of the ID, so making the creating node the owner is just rejection
// sampling over fresh random IDs — no coordination, and the client's
// create lands on a node that can serve the whole session lifecycle.
func (m *Manager) placeID() (string, error) {
	for range placementTries {
		id, err := newID()
		if err != nil {
			return "", err
		}
		if m.owns(id) {
			return id, nil
		}
	}
	return "", fmt.Errorf("service: no self-owned session id in %d draws; is this node part of its own ring?",
		placementTries)
}

// Create validates the request, records it as a fresh store.Record, and
// builds the session from that record through restoreSession — the
// constructor crash recovery uses — then stores it, owned by this node.
func (m *Manager) Create(ctx context.Context, req *CreateSessionRequest) (*Session, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}

	// Reserve a slot before building the prior: constructing a dense
	// product distribution can materialize 2^n worlds, and that work
	// must not be burned for a request the cap is about to reject (nor
	// can the cap be raced past by concurrent creates).
	m.countMu.Lock()
	if m.cfg.MaxSessions > 0 && m.count >= m.cfg.MaxSessions {
		m.countMu.Unlock()
		return nil, fmt.Errorf("%w (%d live)", ErrTooManySessions, m.cfg.MaxSessions)
	}
	m.count++
	m.created++
	seq := m.created
	m.countMu.Unlock()
	release := func() {
		m.countMu.Lock()
		m.count--
		m.countMu.Unlock()
	}

	id, err := m.placeID()
	if err != nil {
		release()
		return nil, err
	}
	now := m.cfg.now()
	rec := &store.Record{
		ID:          id,
		Selector:    req.Selector,
		Pc:          req.Pc,
		K:           req.K,
		Budget:      req.Budget,
		Seed:        req.Seed,
		Created:     now,
		LastAccess:  now,
		WorkerModel: req.WorkerModel,
	}
	if rec.Selector == "" {
		rec.Selector = string(eval.SelApproxFull)
	}
	// Random selectors get a per-session stream derived from the store
	// seed and the creation sequence number, so sessions never share a
	// random state (and a fixed store seed still reproduces a scripted
	// test exactly).
	if rec.Seed == 0 {
		rec.Seed = m.cfg.Seed + seq
	}
	// The prior is recorded exactly as the client sent it — raw weights,
	// not the normalized posterior — so recovery rebuilds it through the
	// same constructor with the same inputs and gets the same bits.
	if req.Joint != nil {
		rec.Prior = store.Prior{
			N:      req.Joint.N,
			Worlds: append([]uint64(nil), req.Joint.Worlds...),
			Probs:  append([]float64(nil), req.Joint.Probs...),
		}
	} else {
		rec.Prior = store.Prior{Marginals: append([]float64(nil), req.Marginals...)}
	}
	s, err := restoreSession(rec, m.cfg.AnonWorker, now)
	if err != nil {
		release()
		return nil, err
	}
	// Take the write lease before the first Put so the record (and every
	// later op) is stamped with our epoch. A fresh random ID cannot have a
	// live holder, so this only ever fails on store trouble.
	epoch, err := m.acquireLease(ctx, id)
	if err != nil {
		release()
		return nil, err
	}
	m.attach(s, epoch)

	// The session must be durable before it is acknowledged: a created
	// session that vanished in a crash would strand the client's ID.
	_, psp := m.tracer.Start(ctx, "persist.put")
	psp.SetAttr("session", id)
	perr := m.store.Put(s.record())
	psp.SetError(perr)
	psp.End()
	if perr != nil {
		m.releaseLease(id)
		release()
		return nil, fmt.Errorf("%w: %v", ErrStore, perr)
	}
	sh := m.shardFor(id)
	sh.mu.Lock()
	sh.sessions[id] = s
	sh.mu.Unlock()
	return s, nil
}

// Get returns the session with the given ID, reloading it from the store
// when it is not resident (a restart, a TTL unload, or an ownership
// migration dropped it from memory). For a session another node serves it
// returns *NotOwnerError carrying the owner's address.
func (m *Manager) Get(ctx context.Context, id string) (*Session, error) {
	if err := m.checkOwnership(ctx, id); err != nil {
		return nil, err
	}
	sh := m.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	sh.mu.RUnlock()
	if ok {
		return s, nil
	}
	return m.load(ctx, id, sh)
}

// Delete removes a session from memory and the store, reporting whether it
// existed in either. The store delete runs under the shard lock so it
// serializes with lazy loads: any load that could still observe the record
// registered its loadOp before this lock and gets invalidated here — a
// deleted session can never be resurrected by a racing reload.
func (m *Manager) Delete(ctx context.Context, id string) (bool, error) {
	if err := m.checkOwnership(ctx, id); err != nil {
		return false, err
	}
	sh := m.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
		s.retire()
	}
	if op, loading := sh.loading[id]; loading {
		op.deleted = true
	}
	stored, err := m.store.Delete(id)
	sh.mu.Unlock()
	// The store delete removed the lease record with the session; only the
	// local bookkeeping entry is left to drop.
	m.leaseMu.Lock()
	delete(m.held, id)
	m.leaseMu.Unlock()
	if ok {
		m.countMu.Lock()
		m.count--
		m.countMu.Unlock()
	}
	if err != nil && !errors.Is(err, store.ErrBadID) {
		m.log.Error("store delete failed", "session", id,
			"trace_id", trace.TraceIDFromContext(ctx), "err", err)
	}
	// A session unloaded by the janitor exists only in the store.
	existed := ok || stored
	if existed {
		m.events.terminate(id, &SessionEvent{
			Type:        EventDeleted,
			SessionInfo: SessionInfo{ID: id},
			TraceID:     trace.TraceIDFromContext(ctx),
		}, m.cfg.now())
	}
	return existed, nil
}

// eventSink returns a session's emit hook: publish into the hub, keyed by
// ID so the feed survives unload/reload. The hook runs under the session
// mutex; the hub is non-blocking by construction.
func (m *Manager) eventSink(id string) func(SessionEvent) {
	return func(ev SessionEvent) { m.events.publish(id, ev, m.cfg.now()) }
}

// Subscribe attaches an event-stream subscriber to the session, loading
// it if needed. The snapshot-or-resume backlog is computed while holding
// the session mutex — the same mutex transitions publish under — so the
// stream a subscriber observes has no gap and no duplicate relative to
// its starting state. hasLast marks a reconnect carrying Last-Event-ID.
func (m *Manager) Subscribe(ctx context.Context, id string, lastID uint64, hasLast bool) (*subscription, error) {
	s, err := m.Get(ctx, id)
	if err != nil {
		return nil, err
	}
	var sub *subscription
	var serr error
	now := m.cfg.now()
	traceID := trace.TraceIDFromContext(ctx)
	if err := s.withSnapshot(now, func(info SessionInfo) {
		sub, serr = m.events.subscribe(id, lastID, hasLast, info, traceID, now)
	}); err != nil {
		return nil, err // instance retired under us; caller re-resolves
	}
	return sub, serr
}

// ListSessions pages through the sessions this node serves, in ID order,
// starting after the `after` cursor (exclusive). Resident sessions report
// live state including entropy; unloaded ones are summarized from their
// store record without forcing a replay.
func (m *Manager) ListSessions(after string, limit int) (*ListSessionsResponse, error) {
	ids, err := m.store.List()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	resp := &ListSessionsResponse{Sessions: []SessionSummary{}}
	for _, id := range ids {
		if id <= after || !m.owns(id) {
			continue
		}
		if len(resp.Sessions) >= limit {
			resp.NextAfter = resp.Sessions[len(resp.Sessions)-1].ID
			break
		}
		if sum, ok := m.summarize(id); ok {
			resp.Sessions = append(resp.Sessions, sum)
		}
	}
	return resp, nil
}

// summarize builds one listing row. ok=false when the session vanished
// between List and here (a concurrent delete) — the row is skipped.
func (m *Manager) summarize(id string) (SessionSummary, bool) {
	sh := m.shardFor(id)
	sh.mu.RLock()
	s, resident := sh.sessions[id]
	sh.mu.RUnlock()
	if resident {
		// peekInfo deliberately skips the TTL touch: listing a node must
		// not keep every session resident forever.
		info := s.peekInfo()
		e := info.Entropy
		return SessionSummary{
			ID:       id,
			Version:  info.Version,
			Spent:    info.Spent,
			Budget:   info.Budget,
			Done:     info.Done,
			Resident: true,
			Entropy:  &e,
		}, true
	}
	rec, err := m.store.Get(id)
	if err != nil {
		return SessionSummary{}, false
	}
	spent := 0
	for _, op := range rec.Ops {
		spent += len(op.Tasks)
	}
	return SessionSummary{
		ID:      id,
		Version: len(rec.Ops),
		Spent:   spent,
		Budget:  rec.Budget,
		Done:    rec.Done || spent >= rec.Budget,
	}, true
}

// Len returns the number of live sessions — the sessions_live gauge.
func (m *Manager) Len() int {
	m.countMu.Lock()
	defer m.countMu.Unlock()
	return m.count
}

// Workers aggregates per-worker accuracy across every RESIDENT session on
// this node — the fleet view behind GET /v1/workers. Unloaded sessions are
// deliberately not replayed for it: the endpoint is an operator dashboard,
// and forcing a full-store replay per scrape would turn a read into a
// recovery storm. Accuracy is the support-weighted mean of each session's
// smoothed estimate; the Wilson interval pools agreement counts across
// sessions.
func (m *Manager) Workers() *WorkersResponse {
	type agg struct {
		sessions, support, correct int
		weighted                   float64 // sum of support·accuracy
	}
	aggs := make(map[string]*agg)
	sessions := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		resident := make([]*Session, 0, len(sh.sessions))
		for _, s := range sh.sessions {
			resident = append(resident, s)
		}
		sh.mu.RUnlock()
		for _, s := range resident {
			infos := s.WorkerStats()
			if len(infos) == 0 {
				continue
			}
			sessions++
			for _, wi := range infos {
				a := aggs[wi.Worker]
				if a == nil {
					a = &agg{}
					aggs[wi.Worker] = a
				}
				a.sessions++
				a.support += wi.Support
				a.correct += wi.Correct
				a.weighted += float64(wi.Support) * wi.Accuracy
			}
		}
	}
	resp := &WorkersResponse{Workers: make([]WorkerFleetInfo, 0, len(aggs)), Sessions: sessions}
	for w, a := range aggs {
		fi := WorkerFleetInfo{
			Worker:   w,
			Sessions: a.sessions,
			Support:  a.support,
			Correct:  a.correct,
		}
		if a.support > 0 {
			fi.Accuracy = a.weighted / float64(a.support)
		}
		fi.WilsonLo, fi.WilsonHi = crowd.WilsonInterval(a.correct, a.support)
		resp.Workers = append(resp.Workers, fi)
	}
	sort.Slice(resp.Workers, func(i, j int) bool { return resp.Workers[i].Worker < resp.Workers[j].Worker })
	return resp
}

// WorkersTracked returns the number of distinct workers observed across
// resident sessions — the workers_tracked gauge.
func (m *Manager) WorkersTracked() int {
	seen := make(map[string]struct{})
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		resident := make([]*Session, 0, len(sh.sessions))
		for _, s := range sh.sessions {
			resident = append(resident, s)
		}
		sh.mu.RUnlock()
		for _, s := range resident {
			for _, wi := range s.WorkerStats() {
				seen[wi.Worker] = struct{}{}
			}
		}
	}
	return len(seen)
}

// leaseSelf is the owner identity recorded in lease records.
func (m *Manager) leaseSelf() string {
	if m.cfg.Self != "" {
		return m.cfg.Self
	}
	return "local"
}

// LeasesHeld returns the number of session write leases this node holds —
// the leases_held gauge, also reported by /healthz.
func (m *Manager) LeasesHeld() int {
	m.leaseMu.Lock()
	defer m.leaseMu.Unlock()
	return len(m.held)
}

// holderGone reports whether the node blocking a lease acquisition can be
// presumed dead. The ring's liveness view is authoritative when the
// Ownership implementation exposes one (cluster.Ring does); without
// liveness information, placement already routed this ID here, so the
// blocker is presumed a dead or deposed predecessor and the steal
// proceeds — the fence, not the guess, is what protects the history.
func (m *Manager) holderGone(owner string) bool {
	if owner == "" || owner == m.leaseSelf() {
		return true
	}
	if pa, ok := m.cfg.Ownership.(interface{ PeerAlive(string) bool }); ok {
		return !pa.PeerAlive(owner)
	}
	return true
}

// acquireLease takes (or steals) the write lease for id and records it in
// the held map, returning the fencing epoch to stamp on the session's
// writes. Returns epoch 0 with no store traffic when leasing is disabled.
//
// Steal policy: a held, unexpired lease is taken over only when the ring
// considers the holder dead. If the holder still looks alive — the
// asymmetric-partition case, where placement moved the session here but
// the old owner is still breathing — the acquisition bounces with
// *FencedError instead, pointing the client at the holder. This keeps two
// nodes with disagreeing ring views from stealing the lease back and
// forth; whichever side the client can actually reach wins, and the loser
// fences on its next write.
func (m *Manager) acquireLease(ctx context.Context, id string) (epoch uint64, err error) {
	if m.cfg.LeaseTTL <= 0 {
		return 0, nil
	}
	var sp *trace.Span
	if m.tracer != nil {
		ctx, sp = m.tracer.Start(ctx, "lease.acquire")
		sp.SetAttr("session", id)
		defer func() {
			sp.SetAttr("epoch", epoch)
			sp.SetError(err)
			sp.End()
		}()
	}
	now := m.cfg.now()
	l, aerr := m.store.AcquireLease(id, m.leaseSelf(), m.cfg.LeaseTTL, now)
	var held *store.LeaseHeldError
	if errors.As(aerr, &held) {
		if !m.holderGone(held.Lease.Owner) {
			if m.fencedBounced != nil {
				m.fencedBounced()
			}
			return 0, &FencedError{ID: id, Owner: held.Lease.Owner}
		}
		m.log.Info("stealing lease: holder presumed dead", "session", id,
			"holder", held.Lease.Owner, "epoch", held.Lease.Epoch,
			"trace_id", trace.TraceIDFromContext(ctx))
		sp.SetAttr("stolen_from", held.Lease.Owner)
		l, aerr = m.store.StealLease(id, m.leaseSelf(), m.cfg.LeaseTTL, now)
	}
	if aerr != nil {
		return 0, fmt.Errorf("%w: %v", ErrStore, aerr)
	}
	m.leaseMu.Lock()
	m.held[id] = l.Epoch
	m.leaseMu.Unlock()
	return l.Epoch, nil
}

// releaseLease gives up the lease for id. Release keeps the epoch in the
// store as a permanent fence, so this node's already-stamped writes stay
// valid while the next owner's acquisition outranks them.
func (m *Manager) releaseLease(id string) {
	m.leaseMu.Lock()
	epoch, ok := m.held[id]
	delete(m.held, id)
	m.leaseMu.Unlock()
	if !ok {
		return
	}
	if err := m.store.ReleaseLease(id, m.leaseSelf(), epoch); err != nil {
		// Losing the release race just means someone already superseded
		// us — exactly the state release was trying to reach.
		m.log.Warn("lease release failed", "session", id, "epoch", epoch, "err", err)
	}
}

// leaseLoop renews held leases on the heartbeat interval until Close.
func (m *Manager) leaseLoop(interval time.Duration) {
	defer close(m.leaseDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.leaseStop:
			return
		case <-t.C:
			m.RenewHeldLeases(m.cfg.now())
		}
	}
}

// RenewHeldLeases renews every lease this node holds against the store,
// retiring any session whose lease another node took. Returns the renewed
// and lost counts. The lease loop calls it on the heartbeat; it is
// exported so tests (and deployments with an external cadence) can drive
// renewal with an explicit clock.
func (m *Manager) RenewHeldLeases(now time.Time) (renewed, lost int) {
	if m.cfg.LeaseTTL <= 0 {
		return 0, 0
	}
	m.leaseMu.Lock()
	snap := make(map[string]uint64, len(m.held))
	for id, epoch := range m.held {
		snap[id] = epoch
	}
	m.leaseMu.Unlock()
	// The sweep span is opened only when there is work: an idle node's
	// heartbeat must not flood the trace recorder with empty traces.
	var sp *trace.Span
	if m.tracer != nil && len(snap) > 0 {
		_, sp = m.tracer.Start(context.Background(), "lease.renew_sweep")
		sp.SetAttr("held", len(snap))
		defer func() {
			sp.SetAttr("renewed", renewed)
			sp.SetAttr("lost", lost)
			sp.End()
		}()
	}
	for id, epoch := range snap {
		_, err := m.store.RenewLease(id, m.leaseSelf(), epoch, m.cfg.LeaseTTL, now)
		switch {
		case err == nil:
			renewed++
		case errors.Is(err, store.ErrFenced):
			m.log.Warn("lease superseded; retiring local instance",
				"session", id, "epoch", epoch)
			m.RetireFenced(id)
			lost++
		default:
			// A store hiccup is not a deposition: keep serving — the epoch
			// fence still protects every write — and retry next tick.
			m.log.Warn("lease renewal failed", "session", id, "err", err)
		}
	}
	return renewed, lost
}

// RetireFenced drops a resident session whose write lease another node
// superseded. The instance must not serve another request from memory —
// its state may already trail the new owner's — so it is retired without
// a flush (a flush would fence anyway) and its event streams are closed
// with a redirect pointing at the new holder. Reports whether an instance
// was resident.
func (m *Manager) RetireFenced(id string) bool {
	m.leaseMu.Lock()
	delete(m.held, id)
	m.leaseMu.Unlock()
	sh := m.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		s.retire()
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()
	if !ok {
		return false
	}
	m.countMu.Lock()
	m.count--
	m.countMu.Unlock()
	owner := ""
	if l, err := m.store.GetLease(id); err == nil && l != nil {
		owner = l.Owner
	}
	if owner == "" && m.cfg.Ownership != nil {
		owner = m.cfg.Ownership.Owner(id)
	}
	m.events.terminate(id, &SessionEvent{
		Type:        EventRedirect,
		SessionInfo: SessionInfo{ID: id},
		Owner:       owner,
	}, m.cfg.now())
	return true
}

// Now returns the manager's clock reading (test-overridable).
func (m *Manager) Now() time.Time { return m.cfg.now() }
