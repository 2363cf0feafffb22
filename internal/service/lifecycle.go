package service

// lifecycle.go is the residency core of the Manager: which sessions are
// live in this process, how they get in (single-flight lazy loads from the
// store), and how they get out. manager.go layers the public API, Create
// and the ownership gate on top.
//
// Every way a session leaves memory is one exit, and drop is the only code
// that removes a session from the resident set: TTL unload and expiry
// (Sweep), Delete, relinquishment to a new owner, and retirement after a
// lost lease all call it. drop holds the one invariant residency has: the
// exit's store side effect (flush or delete) and the removal from the map
// happen in ONE shard-lock critical section, or a concurrent lazy load
// slips into the gap, publishes a second live instance, and the two
// instances fork the session's history.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"crowdfusion/internal/store"
	"crowdfusion/internal/trace"
)

// sessionShards is the number of mutex stripes in the resident set.
// Requests for different sessions contend only within their stripe, so the
// manager itself never serializes the (already per-session serialized) hot
// path. Power of two so shard selection is a mask.
const sessionShards = 16

// shard is one stripe: a mutex, its slice of the session map, and the
// in-flight lazy loads (single-flight: concurrent Gets for one unloaded
// session share one store read + replay).
type shard struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	loading  map[string]*loadOp
}

// loadOp is one in-flight lazy load. done is closed when the load settles;
// s/err hold the outcome. deleted is set (under the shard mutex) by a
// concurrent Delete so the loader discards its result instead of
// resurrecting a session whose record was just removed.
type loadOp struct {
	done    chan struct{}
	s       *Session
	err     error
	deleted bool
}

// tombstoneTTLs is how many TTL periods an expiry tombstone outlives its
// session, bounding tombstone memory in long-lived daemons.
const tombstoneTTLs = 8

// shardFor picks the stripe for an ID by FNV-1a of its bytes.
func (m *Manager) shardFor(id string) *shard {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return &m.shards[h&(sessionShards-1)]
}

func (m *Manager) janitor(interval time.Duration) {
	defer close(m.janitorDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-t.C:
			m.Sweep(m.cfg.Clock())
		}
	}
}

// exit names a way a session leaves memory. It decides drop's store side
// effect, whether the lease is handed back, and the terminal event the
// session's subscribers receive.
type exit int

const (
	// exitUnload: TTL over a durable store. Flush; the session reloads on
	// its next touch, so the event feed stays open.
	exitUnload exit = iota
	// exitExpire: TTL over a volatile store. Delete the record and leave a
	// tombstone; subscribers get expire.
	exitExpire
	// exitDelete: a client delete. Delete the record whether or not the
	// session is resident; subscribers get deleted.
	exitDelete
	// exitRelinquish: another node owns the session now. Flush, so the new
	// owner adopts the full history; subscribers get redirect.
	exitRelinquish
	// exitFenced: another node took the lease. No write (the fence would
	// refuse it); subscribers get redirect.
	exitFenced
)

// exitFailure is the log message for a failed store side effect.
var exitFailure = [exitFenced + 1]string{
	exitUnload:     "eviction flush failed",
	exitExpire:     "eviction delete failed",
	exitDelete:     "store delete failed",
	exitRelinquish: "relinquish flush failed",
}

// drop removes session id from memory by exit why and reports whether the
// session existed: a resident instance, or for exitDelete a stored record.
// A non-nil want drops only that instance: if id has been unloaded and
// reloaded since the caller looked, the successor stays.
//
// Under the shard write lock drop runs the exit's store side effect,
// retires the instance — a handler still holding the pointer is bounced to
// the manager instead of committing to an orphan — and unpublishes it.
// After the lock it gives back the slot, hands a flushed session's lease
// over (after the flush: release keeps our epoch, so the flush was not
// fenced by it), bumps the exit's counter and closes the event feed with
// the exit's terminal event.
func (m *Manager) drop(ctx context.Context, id string, want *Session, why exit) bool {
	var sp *trace.Span
	if why == exitRelinquish {
		ctx, sp = m.cfg.Tracer.Start(ctx, "session.relinquish")
		sp.SetAttr("session", id)
		defer sp.End()
	}
	now := m.cfg.Clock()
	sh := m.shardFor(id)
	sh.mu.Lock()
	s := sh.sessions[id]
	if want != nil && s != want {
		s = nil
	}
	var stored bool
	var err error
	switch {
	case why == exitDelete:
		// The store delete runs even when nothing is resident (an unloaded
		// session exists only in the store), and under the lock so it
		// serializes with lazy loads: a load that could still observe the
		// record registered its loadOp before this lock and is invalidated
		// here, so a deleted session is never resurrected.
		if s != nil {
			s.retire()
		}
		if op, ok := sh.loading[id]; ok {
			op.deleted = true
		}
		stored, err = m.cfg.Store.Delete(id)
	case s == nil:
	case why == exitUnload || why == exitRelinquish:
		// No merge can land on this instance after the snapshot it flushes.
		// The merges themselves are already in the op log; only the final
		// access time and done latch are at risk if the flush fails.
		err = s.retireAndFlush(m.cfg.Store)
	case why == exitExpire:
		s.retire()
		_, err = m.cfg.Store.Delete(id)
		m.tombMu.Lock()
		m.tombs[id] = now
		m.tombMu.Unlock()
	default:
		s.retire()
	}
	if s != nil {
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()

	if err != nil && !errors.Is(err, store.ErrBadID) {
		m.cfg.Logger.Error(exitFailure[why], "session", id, "trace_id", trace.TraceIDFromContext(ctx), "err", err)
		sp.SetError(err)
	}
	if s == nil && !stored {
		return false
	}
	if s != nil {
		m.unreserve()
		// A deleted record took its lease with it, and a fenced lease is
		// someone else's already.
		if why == exitUnload || why == exitRelinquish {
			m.releaseLease(id, s.leaseEpoch)
		}
	}

	ev := &SessionEvent{SessionInfo: SessionInfo{ID: id}, TraceID: trace.TraceIDFromContext(ctx)}
	switch why {
	case exitUnload:
		// The feed outlives the unload: the reloaded instance publishes
		// into it.
		m.metrics.SessionsUnloaded.Add(1)
		return true
	case exitExpire:
		ev.Type = EventExpire
		m.metrics.SessionsEvicted.Add(1)
		info := s.peekInfo()
		m.cfg.Logger.Info("session expired after idle TTL", "session", id,
			"ttl", m.cfg.TTL, "version", info.Version,
			"spent", info.Spent, "budget", info.Budget)
	case exitDelete:
		ev.Type = EventDeleted
	default:
		// Subscribers re-subscribe at the new owner and resume: the lease
		// holder when one is recorded, else the ring's choice.
		ev.Type = EventRedirect
		if l, err := m.cfg.Store.GetLease(id); err == nil && l != nil {
			ev.Owner = l.Owner
		}
		if ev.Owner == "" {
			ev.Owner = m.cfg.ownership.Owner(id)
		}
		sp.SetAttr("new_owner", ev.Owner)
		if why == exitRelinquish {
			m.metrics.SessionsRelinquished.Add(1)
			m.cfg.Logger.Info("session relinquished to new owner", "session", id,
				"new_owner", ev.Owner, "trace_id", ev.TraceID)
		}
	}
	m.events.terminate(id, ev, now)
	return true
}

// resident snapshots every published instance across the shards.
func (m *Manager) resident() []*Session {
	var out []*Session
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, s := range sh.sessions {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	return out
}

// published returns the instance id currently maps to, or nil.
func (m *Manager) published(id string) *Session {
	sh := m.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.sessions[id]
}

// reserve takes a live-session slot, failing with ErrTooManySessions at
// the cap. Created and reloaded sessions occupy the same memory, so both
// take a slot; unreserve gives one back.
func (m *Manager) reserve() error {
	m.countMu.Lock()
	defer m.countMu.Unlock()
	if m.cfg.MaxSessions > 0 && m.count >= m.cfg.MaxSessions {
		return fmt.Errorf("%w (%d live)", ErrTooManySessions, m.cfg.MaxSessions)
	}
	m.count++
	return nil
}

func (m *Manager) unreserve() {
	m.countMu.Lock()
	m.count--
	m.countMu.Unlock()
}

// Sweep evicts every session idle since before now-TTL and returns how
// many were evicted. Over a durable store eviction is an unload: the
// session is flushed (final access time, done latch — its merges are
// already durable) and drops out of memory, to be reloaded lazily on the
// next touch. Over a volatile store it is a true expiry: the record is
// deleted and a tombstone makes later requests fail with ErrExpired
// instead of a generic not-found. Exposed for tests and for deployments
// that prefer an external eviction cadence.
func (m *Manager) Sweep(now time.Time) int {
	if m.cfg.TTL <= 0 {
		return 0
	}
	cutoff := now.Add(-m.cfg.TTL)
	why := exitExpire
	if m.cfg.Store.Durable() {
		why = exitUnload
	}
	evicted := 0
	for _, s := range m.resident() {
		// Idleness is checked right before the drop, and drop removes only
		// this instance: a session reloaded since the snapshot is never
		// the victim.
		if s.idleSince().Before(cutoff) && m.drop(context.Background(), s.id, s, why) {
			evicted++
		}
	}
	if evicted > 0 && why == exitUnload {
		m.cfg.Logger.Info("unloaded idle sessions to the store", "count", evicted)
	}
	m.pruneTombs(now)
	// Subscriber-less feeds idle past the TTL go too; feeds with live
	// subscribers survive their session's unload by design (the reloaded
	// instance publishes into the same feed).
	m.events.prune(cutoff)
	return evicted
}

// pruneTombs drops expiry tombstones older than tombstoneTTLs idle
// lifetimes: after that horizon an expired session answers 404 like any
// unknown ID, which bounds tombstone memory.
func (m *Manager) pruneTombs(now time.Time) {
	horizon := now.Add(-time.Duration(tombstoneTTLs) * m.cfg.TTL)
	m.tombMu.Lock()
	for id, t := range m.tombs {
		if t.Before(horizon) {
			delete(m.tombs, id)
		}
	}
	m.tombMu.Unlock()
}

// wasExpired reports whether the janitor dropped this session from a
// volatile store recently enough that its tombstone survives.
func (m *Manager) wasExpired(id string) bool {
	m.tombMu.Lock()
	_, ok := m.tombs[id]
	m.tombMu.Unlock()
	return ok
}

// RelinquishNotOwned hands every resident session this node no longer
// owns to its new owner, returning how many moved. The new owner rebuilds
// each from the shared store by record replay, bit-identically, exactly
// as crash recovery would. The server calls it on ring topology changes;
// rebalance cost is bounded by the rendezvous minimal-disruption property —
// only the ~K/N sessions the change actually re-homed are touched,
// everything else stays resident and hot.
func (m *Manager) RelinquishNotOwned() int {
	moved := 0
	for _, s := range m.resident() {
		// Ownership is read right before the drop: the ring may have
		// flapped back since the snapshot.
		if !m.owns(s.id) && m.drop(context.Background(), s.id, s, exitRelinquish) {
			moved++
		}
	}
	if moved > 0 {
		m.cfg.Logger.Info("topology change: relinquished sessions to new owners", "count", moved)
	}
	return moved
}

// load lazily restores a session from the store — the recovery path after
// a daemon restart or TTL unload, and equally the adoption path when this
// node becomes a session's owner after a topology change. Loads are
// single-flight per session: concurrent Gets share one store read +
// replay, and a Delete racing the load invalidates it (via loadOp.deleted)
// instead of letting a restored instance outlive its just-removed record.
func (m *Manager) load(ctx context.Context, id string, sh *shard) (*Session, error) {
	sh.mu.Lock()
	if s, ok := sh.sessions[id]; ok {
		sh.mu.Unlock()
		return s, nil
	}
	if op, ok := sh.loading[id]; ok {
		sh.mu.Unlock()
		<-op.done
		if op.err != nil {
			return nil, op.err
		}
		if op.s == nil {
			return nil, ErrNotFound // deleted while loading
		}
		return op.s, nil
	}
	op := &loadOp{done: make(chan struct{})}
	sh.loading[id] = op
	sh.mu.Unlock()

	s, err := m.loadFromStore(ctx, id)

	sh.mu.Lock()
	delete(sh.loading, id)
	if err == nil && op.deleted {
		// The delete took the record and its lease with it; only the slot
		// is left to give back.
		err = ErrNotFound
		s.retire()
		m.unreserve()
		s = nil
	}
	if err == nil {
		sh.sessions[id] = s
		op.s = s
	}
	op.err = err
	sh.mu.Unlock()
	close(op.done)
	if err != nil {
		return nil, err
	}
	info := s.Info(ctx, m.cfg.Clock(), false)
	m.cfg.Logger.Info("session recovered from store", "session", id,
		"version", info.Version, "spent", info.Spent, "budget", info.Budget,
		"trace_id", trace.TraceIDFromContext(ctx))
	m.metrics.SessionsRecovered.Add(1)
	return s, nil
}

// loadFromStore reads and replays one record, taking its write lease and a
// live-session slot. On success the caller owns both and must unreserve
// the slot if it discards the session instead of publishing it.
func (m *Manager) loadFromStore(ctx context.Context, id string) (s *Session, err error) {
	rec, err := m.cfg.Store.Get(id)
	if err != nil {
		if errors.Is(err, store.ErrNotExist) || errors.Is(err, store.ErrBadID) {
			if m.wasExpired(id) {
				return nil, ErrExpired
			}
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}

	// The adoption span covers the fence takeover and the full record
	// replay — the most expensive miss path a request can hit.
	ctx, sp := m.cfg.Tracer.Start(ctx, "session.adopt")
	sp.SetAttr("session", id)
	sp.SetAttr("ops", len(rec.Ops))
	defer func() {
		sp.SetError(err)
		sp.End()
	}()

	// Take the write lease before replaying: adoption must fence the old
	// owner BEFORE this node starts serving, or both could acknowledge
	// merges for one session. Acquisition runs after the existence check so
	// probes for unknown IDs never mint lease records.
	epoch, err := m.acquireLease(ctx, id)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			m.releaseLease(id, epoch)
		}
	}()
	if epoch > 0 {
		// Re-read under our fence: anything the deposed owner flushed
		// before our acquisition landed is visible now, and nothing more
		// can land after it.
		if rec, err = m.cfg.Store.Get(id); err != nil {
			if errors.Is(err, store.ErrNotExist) {
				return nil, ErrNotFound
			}
			return nil, fmt.Errorf("%w: %v", ErrStore, err)
		}
	}
	if err = m.reserve(); err != nil {
		return nil, err
	}
	if s, err = restoreSession(rec, m.cfg.AnonWorker, m.cfg.Clock()); err != nil {
		m.unreserve()
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	// The hooks are attached only after replay: recovery transitions are
	// not republished (subscribers already saw them or will re-sync from
	// their snapshot), and the reloaded instance feeds the same ID-keyed
	// stream its predecessor did.
	m.attach(s, epoch)
	return s, nil
}
