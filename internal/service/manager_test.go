package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"crowdfusion/internal/store"
)

// fakeClock is a settable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testCreateReq() *CreateSessionRequest {
	return &CreateSessionRequest{
		Marginals: []float64{0.5, 0.63, 0.58, 0.49},
		Pc:        0.8,
		K:         2,
		Budget:    6,
	}
}

func TestManagerCreateGetDelete(t *testing.T) {
	m := newManager(Config{})
	defer m.Close()

	s, err := m.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ID()) != 32 {
		t.Fatalf("session id %q not 128-bit hex", s.ID())
	}
	got, err := m.Get(context.Background(), s.ID())
	if err != nil || got != s {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if ok, err := m.Delete(context.Background(), s.ID()); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if ok, err := m.Delete(context.Background(), s.ID()); err != nil || ok {
		t.Fatalf("double Delete = %v, %v", ok, err)
	}
	if _, err := m.Get(context.Background(), s.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
}

func TestManagerRejectsInvalidCreate(t *testing.T) {
	m := newManager(Config{})
	defer m.Close()
	bad := testCreateReq()
	bad.Pc = 0.3
	if _, err := m.Create(context.Background(), bad); err == nil {
		t.Fatal("invalid pc accepted")
	}
	unknown := testCreateReq()
	unknown.Selector = "Oracle"
	if _, err := m.Create(context.Background(), unknown); err == nil {
		t.Fatal("unknown selector accepted")
	}
	if m.Len() != 0 {
		t.Fatalf("failed creates leaked slots: Len = %d", m.Len())
	}
}

func TestManagerSessionCap(t *testing.T) {
	m := newManager(Config{MaxSessions: 2})
	defer m.Close()
	for i := 0; i < 2; i++ {
		if _, err := m.Create(context.Background(), testCreateReq()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create(context.Background(), testCreateReq()); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("create beyond cap = %v, want ErrTooManySessions", err)
	}
	// Deleting one frees a slot.
	var anyID string
	for i := range m.shards {
		for id := range m.shards[i].sessions {
			anyID = id
		}
	}
	if _, err := m.Delete(context.Background(), anyID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(context.Background(), testCreateReq()); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

// TestMaxSessionsZeroIsUnlimited: MaxSessions 0 means no cap, as the
// daemon's -max-sessions flag documents, not a default of 100 000.
func TestMaxSessionsZeroIsUnlimited(t *testing.T) {
	for _, tc := range []struct {
		max  int
		want error
	}{
		{max: 0, want: nil},
		{max: 100_000, want: ErrTooManySessions},
	} {
		svc := NewServer(Config{MaxSessions: tc.max})
		m := svc.Manager()
		m.count = 100_000
		err := m.reserve()
		svc.Close()
		if !errors.Is(err, tc.want) {
			t.Errorf("MaxSessions %d: reserve at 100000 live = %v, want %v", tc.max, err, tc.want)
		}
	}
}

func TestManagerTTLEviction(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m := newManager(Config{TTL: time.Minute, Clock: clk.now})
	defer m.Close()

	idle, err := m.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	busy, err := m.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}

	// Touch only the busy session past the idle cutoff.
	clk.advance(50 * time.Second)
	busy.Info(context.Background(), clk.now(), false)
	clk.advance(30 * time.Second) // idle is now 80s stale, busy 30s

	if n := m.Sweep(clk.now()); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	// Over the default volatile store, eviction is expiry: the distinct
	// ErrExpired (not a generic not-found) tells clients their state is
	// gone for good.
	if _, err := m.Get(context.Background(), idle.ID()); !errors.Is(err, ErrExpired) {
		t.Fatalf("idle session survived: %v", err)
	}
	if _, err := m.Get(context.Background(), "0123456789abcdef0123456789abcdef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id after eviction = %v, want ErrNotFound", err)
	}
	if _, err := m.Get(context.Background(), busy.ID()); err != nil {
		t.Fatalf("busy session evicted: %v", err)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}

	// A session touched between candidate collection and eviction
	// survives: Sweep re-checks under the write lock, so a fresh access
	// always wins. (Directly exercised by touching after the cutoff.)
	clk.advance(2 * time.Minute)
	busy.Info(context.Background(), clk.now(), false)
	if n := m.Sweep(clk.now()); n != 0 {
		t.Fatalf("Sweep evicted %d just-touched sessions", n)
	}
}

func TestManagerConcurrentCreates(t *testing.T) {
	const cap = 32
	m := newManager(Config{MaxSessions: cap})
	defer m.Close()
	var wg sync.WaitGroup
	var created, rejected sync.Map
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s, err := m.Create(context.Background(), testCreateReq())
				key := fmt.Sprintf("%d-%d", g, i)
				if err != nil {
					rejected.Store(key, true)
				} else {
					created.Store(key, s.ID())
				}
			}
		}(g)
	}
	wg.Wait()
	n := 0
	created.Range(func(_, _ any) bool { n++; return true })
	if n != cap {
		t.Fatalf("created %d sessions under cap %d", n, cap)
	}
	if m.Len() != cap {
		t.Fatalf("Len = %d, want %d", m.Len(), cap)
	}
}

func TestManagerShardDistribution(t *testing.T) {
	m := newManager(Config{})
	defer m.Close()
	for i := 0; i < 200; i++ {
		if _, err := m.Create(context.Background(), testCreateReq()); err != nil {
			t.Fatal(err)
		}
	}
	used := 0
	for i := range m.shards {
		m.shards[i].mu.RLock()
		if len(m.shards[i].sessions) > 0 {
			used++
		}
		m.shards[i].mu.RUnlock()
	}
	// 200 random IDs across 16 shards: every shard empty-free with
	// overwhelming probability; require most to be in use.
	if used < sessionShards/2 {
		t.Fatalf("only %d of %d shards used — shard hash is degenerate", used, sessionShards)
	}
}

// TestSessionExits pins every way a session leaves memory — TTL unload,
// TTL expiry, delete (resident or unloaded), relinquishment to a new
// owner, and retirement after a lost lease — by what each leaves behind:
// the resident and lease counts, the record and lease in the store, the
// terminal event a subscriber receives, the counter that moves, a stale
// pointer that refuses work, and, for the exits that flush, a reload that
// restores the same session.
func TestSessionExits(t *testing.T) {
	const other = "http://other:2"
	type counts struct{ unloaded, evicted, relinquished int64 }
	for _, tc := range []struct {
		name     string
		volatile bool
		// prep runs before the exit, outside its counter window.
		prep, exit func(t *testing.T, m *Manager, own *switchOwnership, clk *fakeClock, dir, id string)
		record     bool   // record still in the store
		lease      string // "released", "gone" or "superseded"
		event      string // terminal event type; "" = stream stays open
		owner      string // terminal event Owner
		counter    counts
		reload     bool // the exit flushed: a re-Get restores the session
	}{
		{
			name: "unload",
			exit: sweep, record: true, lease: "released",
			counter: counts{unloaded: 1}, reload: true,
		},
		{
			name: "expire", volatile: true,
			exit: sweep, lease: "gone", event: EventExpire,
			counter: counts{evicted: 1},
		},
		{
			name: "delete resident",
			exit: deleteSession, lease: "gone", event: EventDeleted,
		},
		{
			name: "delete unloaded",
			prep: sweep, exit: deleteSession, lease: "gone", event: EventDeleted,
		},
		{
			name: "relinquish",
			exit: func(t *testing.T, m *Manager, own *switchOwnership, _ *fakeClock, _, _ string) {
				own.setOwner(func(string) string { return other })
				if n := m.RelinquishNotOwned(); n != 1 {
					t.Fatalf("RelinquishNotOwned = %d, want 1", n)
				}
			},
			record: true, lease: "released", event: EventRedirect, owner: other,
			counter: counts{relinquished: 1}, reload: true,
		},
		{
			name: "fenced",
			exit: func(t *testing.T, m *Manager, _ *switchOwnership, clk *fakeClock, dir, id string) {
				thief, err := store.NewFile(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer thief.Close()
				if _, err := thief.StealLease(id, other, time.Minute, clk.now()); err != nil {
					t.Fatal(err)
				}
				if _, lost := m.RenewHeldLeases(clk.now()); lost != 1 {
					t.Fatalf("RenewHeldLeases lost %d, want 1", lost)
				}
			},
			record: true, lease: "superseded", event: EventRedirect, owner: other,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var st store.SessionStore = store.NewMemory()
			if !tc.volatile {
				fs, err := store.NewFile(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				st = fs
			}
			clk := newFakeClock()
			// A switchable placement stands in for the cluster ring.
			own := &switchOwnership{self: "http://self:1", owner: ownAll}
			svc := NewServer(Config{
				Store: st, TTL: time.Minute, LeaseTTL: time.Minute, LeaseRenew: time.Hour, Clock: clk.now,
				ownership: own,
			})
			defer svc.Close()
			m := svc.Manager()

			s, err := m.Create(context.Background(), testCreateReq())
			if err != nil {
				t.Fatal(err)
			}
			id := s.ID()
			runRounds(t, s, clk.now(), 1)
			want := fingerprint(s, clk.now())
			sub, err := m.Subscribe(context.Background(), id, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.cancel()

			if tc.prep != nil {
				tc.prep(t, m, own, clk, dir, id)
			}
			met := svc.Metrics()
			before := counts{met.SessionsUnloaded.Load(), met.SessionsEvicted.Load(), met.SessionsRelinquished.Load()}
			tc.exit(t, m, own, clk, dir, id)
			after := counts{met.SessionsUnloaded.Load(), met.SessionsEvicted.Load(), met.SessionsRelinquished.Load()}

			if m.Len() != 0 || m.LeasesHeld() != 0 {
				t.Fatalf("after exit: len=%d held=%d, want 0 0", m.Len(), m.LeasesHeld())
			}
			if _, err := m.Store().Get(id); (err == nil) != tc.record {
				t.Fatalf("store record after exit: err=%v, want kept=%v", err, tc.record)
			}
			l, err := m.Store().GetLease(id)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.lease == "gone" && l != nil,
				tc.lease == "released" && (l == nil || l.Owner != ""),
				tc.lease == "superseded" && (l == nil || l.Owner != other):
				t.Fatalf("lease after exit = %+v, want %s", l, tc.lease)
			}
			if got := (counts{after.unloaded - before.unloaded, after.evicted - before.evicted,
				after.relinquished - before.relinquished}); got != tc.counter {
				t.Fatalf("counters moved %+v, want %+v", got, tc.counter)
			}
			if _, _, err := s.Select(context.Background(), clk.now(), 0); !errors.Is(err, errSessionRetired) {
				t.Fatalf("stale pointer Select = %v, want errSessionRetired", err)
			}

			if tc.event == "" {
				select {
				case <-sub.done:
					t.Fatal("stream closed by an exit that keeps the feed")
				default:
				}
			} else {
				select {
				case <-sub.done:
				case <-time.After(5 * time.Second):
					t.Fatalf("no terminal event, want %s", tc.event)
				}
				var last SessionEvent
				for len(sub.ch) > 0 {
					last = <-sub.ch
				}
				if last.Type != tc.event || last.Owner != tc.owner {
					t.Fatalf("terminal event = %s owner %q, want %s owner %q", last.Type, last.Owner, tc.event, tc.owner)
				}
			}

			if tc.reload {
				own.setOwner(ownAll)
				got, err := m.Get(context.Background(), id)
				if err != nil {
					t.Fatalf("re-Get after %s: %v", tc.name, err)
				}
				requireIdentical(t, fingerprint(got, clk.now()), want)
				if m.Len() != 1 || m.LeasesHeld() != 1 {
					t.Fatalf("after reload: len=%d held=%d, want 1 1", m.Len(), m.LeasesHeld())
				}
			}
		})
	}
}

// sweep runs the janitor past the session's idle TTL, expecting it to
// leave memory.
func sweep(t *testing.T, m *Manager, _ *switchOwnership, clk *fakeClock, _, _ string) {
	t.Helper()
	clk.advance(2 * time.Minute)
	if n := m.Sweep(clk.now()); n != 1 {
		t.Fatalf("Sweep = %d, want 1", n)
	}
}

// deleteSession deletes the session, expecting it to have existed.
func deleteSession(t *testing.T, m *Manager, _ *switchOwnership, _ *fakeClock, _, id string) {
	t.Helper()
	if ok, err := m.Delete(context.Background(), id); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
}
