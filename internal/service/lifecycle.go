package service

// lifecycle.go is the residency core of the Manager: which sessions are
// live in this process, how they get in (single-flight lazy loads from the
// store), and how they get out (TTL eviction, relinquishment to a new
// owner). manager.go layers the public API and the ownership gate on top;
// this file owns every transition of the resident set.
//
// The file exists because residency transitions all share one delicate
// invariant: the store side effect (flush or delete) and the map removal
// must happen in ONE shard-lock critical section, or a concurrent lazy
// load slips into the gap, publishes a second live instance, and the two
// instances fork the session's history. Eviction, deletion, and
// relinquishment are the same dance with different store side effects —
// keeping them side by side keeps them honest.

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
			m.Sweep(m.cfg.now())
		}
	}
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
	durable := m.store.Durable()
	evicted := 0
	for i := range m.shards {
		sh := &m.shards[i]
		// Collect candidates under the read lock, then re-check under
		// the write lock so a session touched in between survives.
		sh.mu.RLock()
		var stale []string
		for id, s := range sh.sessions {
			if s.idleSince().Before(cutoff) {
				stale = append(stale, id)
			}
		}
		sh.mu.RUnlock()
		if len(stale) == 0 {
			continue
		}
		// The store side effect (flush or delete) MUST happen before the
		// session leaves the map, under the shard write lock. Otherwise a
		// lazy reload could slip into the gap, publish a second live
		// instance, and acknowledge merges that the victim's stale flush
		// would then truncate out of the log (or whose record the volatile
		// delete would pull out from under it).
		sh.mu.Lock()
		for _, id := range stale {
			s, ok := sh.sessions[id]
			if !ok || !s.idleSince().Before(cutoff) {
				continue
			}
			if durable {
				// Flush and retire in one critical section: no merge can
				// land on this instance after the snapshot it flushed, so
				// a handler still holding the pointer is bounced to the
				// manager (and the reloaded successor) instead of
				// committing to an orphan.
				if err := s.retireAndFlush(m.store); err != nil {
					// The merges themselves are already in the op log;
					// only the final access time is at risk.
					m.log.Error("eviction flush failed", "session", id, "err", err)
				}
			} else {
				info := s.Info(now, false)
				s.retire()
				if _, err := m.store.Delete(id); err != nil {
					m.log.Error("eviction delete failed", "session", id, "err", err)
				}
				m.tombMu.Lock()
				m.tombs[id] = now
				m.tombMu.Unlock()
				m.log.Info("session expired after idle TTL", "session", id,
					"ttl", m.cfg.TTL, "version", info.Version,
					"spent", info.Spent, "budget", info.Budget)
				// Volatile expiry is terminal: say goodbye to watchers.
				m.events.terminate(id, &SessionEvent{
					Type:        EventExpire,
					SessionInfo: SessionInfo{ID: id},
				}, now)
			}
			delete(sh.sessions, id)
			// An evicted session's lease goes with it: release (keeping
			// the epoch as the fence) so a future owner adopts without
			// waiting out the TTL. On the volatile path the store delete
			// already removed the lease record; releaseLease then only
			// clears the bookkeeping entry.
			m.releaseLease(id)
			evicted++
		}
		sh.mu.Unlock()
	}
	if evicted > 0 {
		m.countMu.Lock()
		m.count -= evicted
		m.countMu.Unlock()
		if durable {
			m.log.Info("unloaded idle sessions to the store", "count", evicted)
		}
		if m.evicted != nil {
			m.evicted(evicted, !durable)
		}
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

// relinquish hands a resident session over to whichever node now owns it:
// flush-and-retire under the shard write lock (the same critical section
// discipline as eviction — no merge can land between the flushed snapshot
// and the map removal), then drop it from memory. The new owner rebuilds
// the session from the shared store by record replay, bit-identically,
// exactly as crash recovery would. Reports whether an instance was
// resident.
//
// Relinquishing is idempotent and safe to race with itself; a session
// relinquished by mistake (ownership flapped back) just reloads from the
// store on its next touch.
func (m *Manager) relinquish(ctx context.Context, id string) bool {
	sh := m.shardFor(id)
	// Fast path under the read lock: the common misrouted request is for a
	// session that was never resident here, and taking the write lock for
	// every such 421 would serialize redirect storms against the stripe's
	// owned-session traffic. A load that publishes between this check and
	// the caller's redirect is a pre-ownership-change straggler; the next
	// touch relinquishes it, which is the documented convergence path.
	sh.mu.RLock()
	_, resident := sh.sessions[id]
	sh.mu.RUnlock()
	if !resident {
		return false
	}
	var sp *trace.Span
	if m.tracer != nil {
		ctx, sp = m.tracer.Start(ctx, "session.relinquish")
		sp.SetAttr("session", id)
		defer sp.End()
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		if err := s.retireAndFlush(m.store); err != nil {
			// The merges are already in the op log; only the final access
			// time and done latch are at risk.
			m.log.Error("relinquish flush failed", "session", id,
				"trace_id", trace.TraceIDFromContext(ctx), "err", err)
			sp.SetError(err)
		}
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()
	if ok {
		// Hand the lease over with the session: release AFTER the flush
		// (release keeps our epoch, so the flush was not fenced by it) and
		// the new owner's acquisition bumps past it immediately.
		m.releaseLease(id)
		m.countMu.Lock()
		m.count--
		m.countMu.Unlock()
		if m.relinquished != nil {
			m.relinquished(1)
		}
		// Terminate streams with a redirect event carrying the new
		// owner's address: subscribers re-subscribe there and resume.
		owner := ""
		if m.cfg.Ownership != nil {
			owner = m.cfg.Ownership.Owner(id)
		}
		m.events.terminate(id, &SessionEvent{
			Type:        EventRedirect,
			SessionInfo: SessionInfo{ID: id},
			Owner:       owner,
			TraceID:     trace.TraceIDFromContext(ctx),
		}, m.cfg.now())
		sp.SetAttr("new_owner", owner)
		m.log.Info("session relinquished to new owner", "session", id,
			"owner", owner, "trace_id", trace.TraceIDFromContext(ctx))
	}
	return ok
}

// RelinquishNotOwned scans the resident set and relinquishes every session
// this node no longer owns, returning how many moved. The server calls it
// on ring topology changes; rebalance cost is bounded by the rendezvous
// minimal-disruption property — only the ~K/N sessions the change actually
// re-homed are touched, everything else stays resident and hot.
func (m *Manager) RelinquishNotOwned() int {
	if m.cfg.Ownership == nil {
		return 0
	}
	moved := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		var stale []string
		for id := range sh.sessions {
			if !m.owns(id) {
				stale = append(stale, id)
			}
		}
		sh.mu.RUnlock()
		for _, id := range stale {
			// Re-check under current ownership: the ring may have flapped
			// back between the scan and the handoff.
			if !m.owns(id) && m.relinquish(context.Background(), id) {
				moved++
			}
		}
	}
	if moved > 0 {
		m.log.Info("topology change: relinquished sessions to new owners", "count", moved)
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

	s, release, err := m.loadFromStore(ctx, id)

	sh.mu.Lock()
	delete(sh.loading, id)
	if err == nil && op.deleted {
		err = ErrNotFound
		s.retire()
		release()
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
	info := s.Info(m.cfg.now(), false)
	m.log.Info("session recovered from store", "session", id,
		"version", info.Version, "spent", info.Spent, "budget", info.Budget,
		"trace_id", trace.TraceIDFromContext(ctx))
	if m.recovered != nil {
		m.recovered()
	}
	return s, nil
}

// loadFromStore reads and replays one record, reserving a live-session
// slot. On success the caller owns the slot and must call release if it
// discards the session instead of publishing it.
func (m *Manager) loadFromStore(ctx context.Context, id string) (s *Session, release func(), err error) {
	rec, err := m.store.Get(id)
	if err != nil {
		if errors.Is(err, store.ErrNotExist) || errors.Is(err, store.ErrBadID) {
			if m.wasExpired(id) {
				return nil, nil, ErrExpired
			}
			return nil, nil, ErrNotFound
		}
		return nil, nil, fmt.Errorf("%w: %v", ErrStore, err)
	}

	// The adoption span covers the fence takeover and the full record
	// replay — the most expensive miss path a request can hit.
	if m.tracer != nil {
		var sp *trace.Span
		ctx, sp = m.tracer.Start(ctx, "session.adopt")
		sp.SetAttr("session", id)
		sp.SetAttr("ops", len(rec.Ops))
		defer func() {
			sp.SetError(err)
			sp.End()
		}()
	}

	// Take the write lease before replaying: adoption must fence the old
	// owner BEFORE this node starts serving, or both could acknowledge
	// merges for one session. Acquisition runs after the existence check so
	// probes for unknown IDs never mint lease records.
	epoch, err := m.acquireLease(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	if epoch > 0 {
		// Re-read under our fence: anything the deposed owner flushed
		// before our acquisition landed is visible now, and nothing more
		// can land after it.
		rec, err = m.store.Get(id)
		if err != nil {
			m.releaseLease(id)
			if errors.Is(err, store.ErrNotExist) {
				return nil, nil, ErrNotFound
			}
			return nil, nil, fmt.Errorf("%w: %v", ErrStore, err)
		}
	}

	// A reloaded session occupies the same memory as a created one, so it
	// takes a slot under the same cap.
	m.countMu.Lock()
	if m.cfg.MaxSessions > 0 && m.count >= m.cfg.MaxSessions {
		m.countMu.Unlock()
		m.releaseLease(id)
		return nil, nil, fmt.Errorf("%w (%d live)", ErrTooManySessions, m.cfg.MaxSessions)
	}
	m.count++
	m.countMu.Unlock()
	release = func() {
		m.countMu.Lock()
		m.count--
		m.countMu.Unlock()
		m.releaseLease(id)
	}

	s, err = restoreSession(rec, m.cfg.AnonWorker, m.cfg.now())
	if err != nil {
		release()
		return nil, nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	// The hooks are attached only after replay: recovery transitions are
	// not republished (subscribers already saw them or will re-sync from
	// their snapshot), and the reloaded instance feeds the same ID-keyed
	// stream its predecessor did.
	m.attach(s, epoch)
	return s, release, nil
}
