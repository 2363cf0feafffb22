package service

// events.go — the session event hub: per-session fan-out of state
// transitions to SSE subscribers.
//
// Design constraints, in order of importance:
//
//   - The merge path can NEVER block on a subscriber. Sessions publish
//     under their own mutex (that is what makes the event order exactly
//     the commit order), so delivery is a bounded non-blocking channel
//     send per subscriber: a subscriber whose buffer is full is dropped
//     and marked (drop-and-mark, surfaced in /metrics), never waited on.
//   - Subscription is gapless. Manager.Subscribe registers the subscriber
//     while holding the session mutex, so no transition can be published
//     between the snapshot the subscriber starts from and its
//     registration.
//   - Feeds are keyed by session ID, not session instance, so the
//     registry survives TTL unload and lazy reload: the reloaded
//     instance's emit hook publishes into the same feed. Ownership moves
//     and deletes terminate feeds explicitly with a final event.
//   - Resume is bounded. Each feed keeps a ring of the last eventRingSize
//     events; a reconnect with Last-Event-ID inside the window replays
//     exactly the missed tail, anything older falls back to a fresh
//     snapshot.

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

const (
	// eventRingSize bounds the per-session replay window for
	// Last-Event-ID resume.
	eventRingSize = 256
	// defaultSubscriberBuffer is the per-subscriber channel depth: how
	// far a consumer may fall behind before it is dropped.
	defaultSubscriberBuffer = 64
	// DefaultMaxSubscribers caps concurrent subscribers per session.
	DefaultMaxSubscribers = 32
)

// ErrTooManySubscribers rejects a subscription beyond the per-session cap.
var ErrTooManySubscribers = errors.New("service: too many subscribers for this session")

// subscription is one attached event-stream consumer. The SSE handler
// first drains backlog (snapshot or resume replay), then receives from ch
// until done closes — on terminate (session deleted/expired/redirected),
// on drop (the consumer fell behind), or on hub shutdown. dropped is
// written before done is closed and read only after done is observed
// closed, so the close is its happens-before edge.
type subscription struct {
	feed    *sessionFeed
	hub     *eventHub
	backlog []SessionEvent
	ch      chan SessionEvent
	done    chan struct{}
	closed  bool // guarded by feed.mu
	dropped bool
}

// cancel detaches the subscription; safe to call more than once and
// concurrently with publish/terminate.
func (sub *subscription) cancel() {
	f := sub.feed
	f.mu.Lock()
	f.detachLocked(sub)
	f.mu.Unlock()
}

// sessionFeed is one session's event stream: a monotonic sequence, a
// bounded replay ring, and the attached subscribers.
type sessionFeed struct {
	mu   sync.Mutex
	seq  uint64
	ring []SessionEvent
	subs map[*subscription]struct{}
	// idle is the last publish/subscribe time; subscriber-less feeds idle
	// past the session TTL are pruned by the janitor sweep.
	idle time.Time
}

// detachLocked is the one way a subscriber leaves its feed — on cancel,
// on drop, on terminate and on hub shutdown: it removes sub from subs,
// closes done once and decrements the live gauge. Safe to call more than
// once. Callers hold f.mu.
func (f *sessionFeed) detachLocked(sub *subscription) {
	if _, ok := f.subs[sub]; ok {
		delete(f.subs, sub)
		sub.hub.subscriberGone()
	}
	if !sub.closed {
		sub.closed = true
		close(sub.done)
	}
}

// eventHub owns every session feed. Lock order: hub.mu before feed.mu;
// callers publishing under a session mutex add s.mu in front, never the
// reverse.
type eventHub struct {
	mu      sync.RWMutex
	feeds   map[string]*sessionFeed
	maxSubs int
	subBuf  int
	metrics *Metrics
}

func newEventHub(maxSubs int, metrics *Metrics) *eventHub {
	return &eventHub{
		feeds:   make(map[string]*sessionFeed),
		maxSubs: maxSubs,
		subBuf:  defaultSubscriberBuffer,
		metrics: metrics,
	}
}

func (h *eventHub) subscriberGone() {
	h.metrics.SubscribersLive.Add(-1)
}

// publish appends one event to the session's feed and fans it out. A
// session with no feed (nobody ever subscribed) pays one map read and
// returns — transitions are free until someone watches. Called under the
// publishing session's mutex; must never block.
func (h *eventHub) publish(id string, ev SessionEvent, now time.Time) {
	h.mu.RLock()
	f := h.feeds[id]
	h.mu.RUnlock()
	if f == nil {
		return
	}
	f.mu.Lock()
	f.seq++
	ev.Seq = f.seq
	f.ring = append(f.ring, ev)
	if len(f.ring) > eventRingSize {
		f.ring = f.ring[len(f.ring)-eventRingSize:]
	}
	f.idle = now
	h.metrics.EventsPublished.Add(1)
	for sub := range f.subs {
		select {
		case sub.ch <- ev:
		default:
			// Drop-and-mark: the subscriber's buffer is full, so it is
			// detached rather than waited on. Its handler sees done close,
			// drains what is buffered, sends a reset event, and ends the
			// stream; the client reconnects with Last-Event-ID and resumes
			// from the ring (or a fresh snapshot).
			sub.dropped = true
			h.metrics.EventsDropped.Add(1)
			h.metrics.SubscribersDropped.Add(1)
			f.detachLocked(sub)
		}
	}
	f.mu.Unlock()
}

// subscribe attaches a consumer to the session's feed, creating the feed
// on first use. The caller runs it while holding the session mutex (see
// Manager.Subscribe), which is what makes the snapshot-or-resume backlog
// gapless with respect to concurrent publishes. hasLast distinguishes a
// reconnect (Last-Event-ID supplied) from a fresh subscriber. traceID, when
// non-empty, stamps the opening snapshot event so a watcher can tie its
// stream start to the subscribing request's trace.
func (h *eventHub) subscribe(id string, lastID uint64, hasLast bool, snapshot SessionInfo, traceID string, now time.Time) (*subscription, error) {
	h.mu.Lock()
	f := h.feeds[id]
	if f == nil {
		f = &sessionFeed{subs: make(map[*subscription]struct{}), idle: now}
		h.feeds[id] = f
	}
	h.mu.Unlock()

	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.subs) >= h.maxSubs {
		return nil, fmt.Errorf("%w (cap %d)", ErrTooManySubscribers, h.maxSubs)
	}
	sub := &subscription{
		feed: f,
		hub:  h,
		ch:   make(chan SessionEvent, h.subBuf),
		done: make(chan struct{}),
	}
	if hasLast && lastID <= f.seq && f.seq-lastID <= uint64(len(f.ring)) {
		// Resume inside the replay window: exactly the missed tail, no
		// duplicates, no gaps. Empty when the subscriber is caught up.
		missed := f.ring[len(f.ring)-int(f.seq-lastID):]
		sub.backlog = append(sub.backlog, missed...)
	} else {
		// Fresh subscriber, or a resume point outside the window: open
		// with a full snapshot stamped with the current sequence, so the
		// next reconnect resumes from here.
		sub.backlog = append(sub.backlog, SessionEvent{
			Seq:         f.seq,
			Type:        EventSnapshot,
			SessionInfo: snapshot,
			TraceID:     traceID,
		})
	}
	f.subs[sub] = struct{}{}
	f.idle = now
	h.metrics.SubscribersLive.Add(1)
	return sub, nil
}

// terminate removes the session's feed, delivering final (when non-nil)
// to every subscriber before closing them — the deleted/expire/redirect
// goodbye. Best-effort delivery: a subscriber too far behind to take one
// more event just closes.
func (h *eventHub) terminate(id string, final *SessionEvent, now time.Time) {
	h.mu.Lock()
	f := h.feeds[id]
	delete(h.feeds, id)
	h.mu.Unlock()
	if f == nil {
		return
	}
	f.mu.Lock()
	if final != nil && len(f.subs) > 0 {
		f.seq++
		ev := *final
		ev.Seq = f.seq
		for sub := range f.subs {
			select {
			case sub.ch <- ev:
			default:
			}
		}
	}
	f.idle = now
	for sub := range f.subs {
		f.detachLocked(sub)
	}
	f.mu.Unlock()
}

// closeAll detaches every subscriber on every feed — service shutdown.
// Streams end without a terminal event; clients reconnect elsewhere.
func (h *eventHub) closeAll() {
	h.mu.Lock()
	feeds := h.feeds
	h.feeds = make(map[string]*sessionFeed)
	h.mu.Unlock()
	for _, f := range feeds {
		f.mu.Lock()
		for sub := range f.subs {
			f.detachLocked(sub)
		}
		f.mu.Unlock()
	}
}

// prune drops subscriber-less feeds idle since before cutoff, bounding
// hub memory the same way the TTL janitor bounds the resident set. Feeds
// with live subscribers are kept regardless — they survive their
// session's unload by design.
func (h *eventHub) prune(cutoff time.Time) {
	h.mu.Lock()
	for id, f := range h.feeds {
		f.mu.Lock()
		if len(f.subs) == 0 && f.idle.Before(cutoff) {
			delete(h.feeds, id)
		}
		f.mu.Unlock()
	}
	h.mu.Unlock()
}
