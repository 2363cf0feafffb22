package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crowdfusion/internal/core"
	"crowdfusion/internal/crowd"
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

// ownership is the manager's view of session placement: which sessions
// this node serves, where the others live, and the name this node records
// on its leases. cluster.Ring is the production implementation, soleNode
// the single-node one; tests substitute arbitrary partitions.
//
// Ownership answers are allowed to change over time (nodes die, rings
// heal). The manager re-checks on every touch and relinquishes resident
// sessions it no longer owns, so placement changes move sessions with at
// most one flush-and-reload — never a fork.
type ownership interface {
	// Owns reports whether this node currently serves id.
	Owns(id string) bool
	// Owner returns the address of the node that currently serves id.
	Owner(id string) string
	// Self is this node's advertised address, recorded as the lease owner
	// so peers (and operators reading lease files) can see who holds a
	// session.
	Self() string
}

// soleNode is the placement of a node outside any cluster: it owns every
// session, names no other owner, and records its leases as "local".
type soleNode struct{}

func (soleNode) Owns(string) bool    { return true }
func (soleNode) Owner(string) string { return "" }
func (soleNode) Self() string        { return "local" }

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
	// epoch is the lease epoch the refused write was stamped with, naming
	// the instance that must retire; 0 for a bounced acquisition.
	epoch uint64
}

// Error implements error.
func (e *FencedError) Error() string {
	if e.Owner == "" {
		return fmt.Sprintf("service: session %s write fenced: lease superseded", e.ID)
	}
	return fmt.Sprintf("service: session %s write fenced: lease held by %s", e.ID, e.Owner)
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
	// cfg is resolved; its Store is wrapped to count store operations.
	cfg     Config
	metrics *Metrics

	shards [sessionShards]shard

	countMu sync.Mutex
	count   int          // live sessions across shards, see reserve
	created atomic.Int64 // sessions ever created (seeds Random selector streams)

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

	leaseStop chan struct{}
	leaseDone chan struct{}
}

// attach wires a session built by restoreSession into this manager: the
// counters, the lease epoch its writes are stamped with, the tracer, the
// persist hook and the event sink — the same wiring for created and
// reloaded sessions, done before the instance is published.
func (m *Manager) attach(s *Session, epoch uint64) {
	s.metrics = m.metrics
	s.leaseEpoch = epoch
	s.tracer = m.cfg.Tracer
	s.persist = func(op store.Op) error { return m.cfg.Store.Append(s.id, op) }
	s.emit = m.eventSink(s.id)
}

// newManager builds a manager over cfg.Store and starts its TTL janitor
// (when TTL > 0) and lease heartbeat (when LeaseTTL > 0).
func newManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	metrics := &Metrics{}
	cfg.Store = instrumentedStore{inner: cfg.Store, m: metrics}
	m := &Manager{
		cfg:     cfg,
		metrics: metrics,
		tombs:   make(map[string]time.Time),
		events:  newEventHub(cfg.MaxSubscribers, metrics),
	}
	for i := range m.shards {
		m.shards[i].sessions = make(map[string]*Session)
		m.shards[i].loading = make(map[string]*loadOp)
	}
	if cfg.LeaseTTL > 0 {
		m.leaseStop = make(chan struct{})
		m.leaseDone = make(chan struct{})
		go m.leaseLoop(cfg.LeaseRenew)
	}
	if cfg.TTL > 0 {
		m.janitorStop = make(chan struct{})
		m.janitorDone = make(chan struct{})
		go m.janitor(max(cfg.TTL/4, time.Second))
	}
	return m
}

// Store exposes the session store, wrapped to count store operations (for
// tests and embedders).
func (m *Manager) Store() store.SessionStore { return m.cfg.Store }

// owns reports whether this node serves id.
func (m *Manager) owns(id string) bool { return m.cfg.ownership.Owns(id) }

// checkOwnership gates every session-addressed entry point. For an ID this
// node does not serve it relinquishes any resident instance (the bounded
// part of rebalancing: a topology change moves only the sessions it
// re-homed, each with one flush) and returns the redirect. Relinquishing
// is idempotent; a session relinquished by mistake (ownership flapped
// back) just reloads from the store on its next touch.
func (m *Manager) checkOwnership(ctx context.Context, id string) error {
	if m.owns(id) {
		return nil
	}
	// The read-locked probe keeps the common misrouted request — for a
	// session never resident here — off the stripe's write lock, so a
	// redirect storm does not serialize against owned-session traffic.
	if s := m.published(id); s != nil {
		m.drop(ctx, id, s, exitRelinquish)
	}
	return &NotOwnerError{ID: id, Owner: m.cfg.ownership.Owner(id)}
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
	// Each lease is released after the final flush (release keeps the
	// epoch, so our own flush is never fenced by it) — a clean shutdown
	// lets the next owner adopt immediately instead of waiting out the TTL.
	for _, s := range m.resident() {
		if m.cfg.Store.Durable() {
			if err := s.flush(m.cfg.Store); err != nil {
				m.cfg.Logger.Error("final flush failed", "session", s.ID(), "err", err)
			}
		}
		m.releaseLease(s.id, s.leaseEpoch)
	}
	if err := m.cfg.Store.Close(); err != nil {
		m.cfg.Logger.Error("closing store failed", "err", err)
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
	if err := m.reserve(); err != nil {
		return nil, err
	}
	seq := m.created.Add(1)
	fail := func(err error) (*Session, error) {
		m.unreserve()
		return nil, err
	}

	id, err := m.placeID()
	if err != nil {
		return fail(err)
	}
	now := m.cfg.Clock()
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
		rec.Selector = string(core.SelApproxFull)
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
		return fail(err)
	}
	// Take the write lease before the first Put so the record (and every
	// later op) is stamped with our epoch. A fresh random ID cannot have a
	// live holder, so this only ever fails on store trouble.
	epoch, err := m.acquireLease(ctx, id)
	if err != nil {
		return fail(err)
	}
	m.attach(s, epoch)

	// The session must be durable before it is acknowledged: a created
	// session that vanished in a crash would strand the client's ID.
	_, psp := m.cfg.Tracer.Start(ctx, "persist.put")
	psp.SetAttr("session", id)
	perr := m.cfg.Store.Put(s.record())
	psp.SetError(perr)
	psp.End()
	if perr != nil {
		m.releaseLease(id, epoch)
		return fail(fmt.Errorf("%w: %v", ErrStore, perr))
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
	if s := m.published(id); s != nil {
		return s, nil
	}
	return m.load(ctx, id, m.shardFor(id))
}

// onSession calls f on sess, the instance id resolved to. When that
// instance retired in between — the janitor unloaded or evicted it, or a
// delete or fence dropped it — onSession resolves id once more (reloading
// it from a durable store) and calls f on the successor. A second
// retirement in a row surfaces as errSessionRetired.
func onSession[T any](ctx context.Context, m *Manager, id string, sess *Session, f func(*Session) (T, error)) (T, error) {
	v, err := f(sess)
	if !errors.Is(err, errSessionRetired) {
		return v, err
	}
	if sess, err = m.Get(ctx, id); err != nil {
		return v, err
	}
	return f(sess)
}

// Delete removes a session from memory and the store, reporting whether it
// existed in either. A load racing the delete is invalidated, so a deleted
// session can never be resurrected by it (see drop).
func (m *Manager) Delete(ctx context.Context, id string) (bool, error) {
	if err := m.checkOwnership(ctx, id); err != nil {
		return false, err
	}
	return m.drop(ctx, id, nil, exitDelete), nil
}

// eventSink returns a session's emit hook: publish into the hub, keyed by
// ID so the feed survives unload/reload. The hook runs under the session
// mutex; the hub is non-blocking by construction.
func (m *Manager) eventSink(id string) func(SessionEvent) {
	return func(ev SessionEvent) { m.events.publish(id, ev, m.cfg.Clock()) }
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
	traceID := trace.TraceIDFromContext(ctx)
	return onSession(ctx, m, id, s, func(s *Session) (sub *subscription, err error) {
		now := m.cfg.Clock()
		if werr := s.withSnapshot(now, func(info SessionInfo) {
			sub, err = m.events.subscribe(id, lastID, hasLast, info, traceID, now)
		}); werr != nil {
			return nil, werr
		}
		return sub, err
	})
}

// ListSessions pages through the sessions this node serves, in ID order,
// starting after the `after` cursor (exclusive). Resident sessions report
// live state including entropy; unloaded ones are summarized from their
// store record without forcing a replay.
func (m *Manager) ListSessions(after string, limit int) (*ListSessionsResponse, error) {
	ids, err := m.cfg.Store.List()
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
	if s := m.published(id); s != nil {
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
	rec, err := m.cfg.Store.Get(id)
	if err != nil {
		return SessionSummary{}, false
	}
	version, spent, done := 0, 0, false
	for _, op := range rec.Ops {
		switch op.Kind {
		case store.OpMerge:
			version++
			spent += len(op.Tasks)
			done = false
		case store.OpDone:
			done = true
		}
	}
	return SessionSummary{
		ID:      id,
		Version: version,
		Spent:   spent,
		Budget:  rec.Budget,
		Done:    done || spent >= rec.Budget,
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
// recovery storm. Each session contributes one row per worker to
// PoolWorkers, in session-ID order: the shard maps iterate in random
// order, and pooling the same rows in another order would move the
// accuracy's last bits between reads.
func (m *Manager) Workers() *WorkersResponse {
	var rows []WorkerFleetInfo
	sessions := 0
	resident := m.resident()
	sort.Slice(resident, func(i, j int) bool { return resident[i].id < resident[j].id })
	for _, s := range resident {
		infos := s.WorkerStats()
		if len(infos) > 0 {
			sessions++
		}
		for _, wi := range infos {
			rows = append(rows, WorkerFleetInfo{
				Worker:   wi.Worker,
				Sessions: 1,
				Support:  wi.Support,
				Correct:  wi.Correct,
				Accuracy: wi.Accuracy,
			})
		}
	}
	return &WorkersResponse{Workers: PoolWorkers(rows), Sessions: sessions}
}

// PoolWorkers merges per-session or per-node worker rows into one row per
// worker, sorted by worker ID: Sessions, Support and Correct add up,
// Accuracy becomes the support-weighted mean of the rows' accuracies, and
// the Wilson interval bounds the pooled agreement rate. Rows are summed in
// the order given, so the same rows always pool to the same bits.
func PoolWorkers(rows []WorkerFleetInfo) []WorkerFleetInfo {
	type agg struct {
		row      WorkerFleetInfo
		weighted float64 // sum of support·accuracy
	}
	aggs := make(map[string]*agg)
	for _, r := range rows {
		a := aggs[r.Worker]
		if a == nil {
			a = &agg{row: WorkerFleetInfo{Worker: r.Worker}}
			aggs[r.Worker] = a
		}
		a.row.Sessions += r.Sessions
		a.row.Support += r.Support
		a.row.Correct += r.Correct
		a.weighted += float64(r.Support) * r.Accuracy
	}
	pooled := make([]WorkerFleetInfo, 0, len(aggs))
	for _, a := range aggs {
		fi := a.row
		if fi.Support > 0 {
			fi.Accuracy = a.weighted / float64(fi.Support)
		}
		fi.WilsonLo, fi.WilsonHi = crowd.WilsonInterval(fi.Correct, fi.Support)
		pooled = append(pooled, fi)
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i].Worker < pooled[j].Worker })
	return pooled
}

// LeasesHeld returns the number of resident sessions holding a write
// lease — the leases_held gauge, also reported by /healthz. Each resident
// instance records the lease it holds in its epoch.
func (m *Manager) LeasesHeld() int {
	n := 0
	for _, s := range m.resident() {
		if s.leaseEpoch > 0 {
			n++
		}
	}
	return n
}

// holderGone reports whether the node blocking a lease acquisition can be
// presumed dead. The ring's liveness view is authoritative when the
// placement exposes one (cluster.Ring does); without
// liveness information, placement already routed this ID here, so the
// blocker is presumed a dead or deposed predecessor and the steal
// proceeds — the fence, not the guess, is what protects the history.
func (m *Manager) holderGone(owner string) bool {
	if owner == "" || owner == m.cfg.ownership.Self() {
		return true
	}
	if pa, ok := m.cfg.ownership.(interface{ PeerAlive(string) bool }); ok {
		return !pa.PeerAlive(owner)
	}
	return true
}

// acquireLease takes (or steals) the write lease for id, returning the
// fencing epoch to stamp on the session's
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
	ctx, sp := m.cfg.Tracer.Start(ctx, "lease.acquire")
	sp.SetAttr("session", id)
	defer func() {
		sp.SetAttr("epoch", epoch)
		sp.SetError(err)
		sp.End()
	}()
	now := m.cfg.Clock()
	l, aerr := m.cfg.Store.AcquireLease(id, m.cfg.ownership.Self(), m.cfg.LeaseTTL, now)
	var held *store.LeaseHeldError
	if errors.As(aerr, &held) {
		if !m.holderGone(held.Lease.Owner) {
			// Store-level fenced writes are counted by the instrumented
			// store; a bounced acquisition is counted here.
			m.metrics.FencedWritesRefused.Add(1)
			return 0, &FencedError{ID: id, Owner: held.Lease.Owner}
		}
		m.cfg.Logger.Info("stealing lease: holder presumed dead", "session", id,
			"holder", held.Lease.Owner, "epoch", held.Lease.Epoch,
			"trace_id", trace.TraceIDFromContext(ctx))
		sp.SetAttr("stolen_from", held.Lease.Owner)
		l, aerr = m.cfg.Store.StealLease(id, m.cfg.ownership.Self(), m.cfg.LeaseTTL, now)
	}
	if aerr != nil {
		return 0, fmt.Errorf("%w: %v", ErrStore, aerr)
	}
	return l.Epoch, nil
}

// releaseLease gives up the lease for id taken at epoch (0: leasing is
// disabled, nothing to release). Release keeps the epoch in the store as a
// permanent fence, so this node's already-stamped writes stay valid while
// the next owner's acquisition outranks them.
func (m *Manager) releaseLease(id string, epoch uint64) {
	if epoch == 0 {
		return
	}
	if err := m.cfg.Store.ReleaseLease(id, m.cfg.ownership.Self(), epoch); err != nil {
		// Losing the release race just means someone already superseded
		// us — exactly the state release was trying to reach.
		m.cfg.Logger.Warn("lease release failed", "session", id, "epoch", epoch, "err", err)
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
			m.RenewHeldLeases(m.cfg.Clock())
		}
	}
}

// RenewHeldLeases renews the lease of every resident session at the epoch
// it holds, retiring any session whose lease another node took. Returns
// the renewed and lost counts. The lease loop calls it on the heartbeat;
// it is exported so tests (and deployments with an external cadence) can
// drive renewal with an explicit clock.
func (m *Manager) RenewHeldLeases(now time.Time) (renewed, lost int) {
	if m.cfg.LeaseTTL <= 0 {
		return 0, 0
	}
	var held []*Session
	for _, s := range m.resident() {
		if s.leaseEpoch > 0 {
			held = append(held, s)
		}
	}
	// The sweep span is opened only when there is work: an idle node's
	// heartbeat must not flood the trace recorder with empty traces.
	var sp *trace.Span
	if len(held) > 0 {
		_, sp = m.cfg.Tracer.Start(context.Background(), "lease.renew_sweep")
		sp.SetAttr("held", len(held))
		defer func() {
			sp.SetAttr("renewed", renewed)
			sp.SetAttr("lost", lost)
			sp.End()
		}()
	}
	for _, s := range held {
		_, err := m.cfg.Store.RenewLease(s.id, m.cfg.ownership.Self(), s.leaseEpoch, m.cfg.LeaseTTL, now)
		switch {
		case err == nil:
			renewed++
		case errors.Is(err, store.ErrFenced):
			m.cfg.Logger.Warn("lease superseded; retiring local instance",
				"session", s.id, "epoch", s.leaseEpoch)
			// An instance unloaded since the snapshot released its lease
			// (so the renewal was refused) and is not dropped again.
			if m.drop(context.Background(), s.id, s, exitFenced) {
				lost++
			}
		default:
			// A store hiccup is not a deposition: keep serving — the epoch
			// fence still protects every write — and retry next tick.
			m.cfg.Logger.Warn("lease renewal failed", "session", s.id, "err", err)
		}
	}
	return renewed, lost
}

// RetireFenced drops the resident instance of id whose write lease, taken
// at epoch, another node superseded. The instance must not serve another
// request from memory — its state may already trail the new owner's — so
// it is retired without a flush (a flush would fence anyway) and its event
// streams are closed with a redirect pointing at the new holder. A
// successor adopted at a later epoch is left alone. Reports whether an
// instance was dropped.
func (m *Manager) RetireFenced(id string, epoch uint64) bool {
	s := m.published(id)
	return s != nil && s.leaseEpoch == epoch && m.drop(context.Background(), id, s, exitFenced)
}

// Now reads the manager's Config.Clock.
func (m *Manager) Now() time.Time { return m.cfg.Clock() }
