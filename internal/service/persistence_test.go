package service

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdfusion/internal/dist"
	"crowdfusion/internal/store"
)

// newFileManager builds a manager over a file store in dir. Closing is the
// caller's choice: crash tests deliberately abandon the manager without
// Close, because an acknowledged merge must not depend on a clean exit.
func newFileManager(t *testing.T, dir string, cfg Config) *Manager {
	t.Helper()
	fs, err := store.NewFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = fs
	return newManager(cfg)
}

// sessionFingerprint captures everything the acceptance criteria require
// to survive a crash bit-for-bit.
type sessionFingerprint struct {
	info    SessionInfo
	worlds  []dist.World
	probs   []float64
	entropy float64
}

func fingerprint(s *Session, now time.Time) sessionFingerprint {
	p := s.Posterior()
	return sessionFingerprint{
		info:    s.Info(context.Background(), now, true),
		worlds:  append([]dist.World(nil), p.Worlds()...),
		probs:   append([]float64(nil), p.Probs()...),
		entropy: p.Entropy(),
	}
}

// requireIdentical asserts two fingerprints match exactly — float equality,
// not tolerance: recovery replays the same arithmetic, so the bits agree.
func requireIdentical(t *testing.T, got, want sessionFingerprint) {
	t.Helper()
	if !reflect.DeepEqual(got.info, want.info) {
		t.Fatalf("session info diverged after recovery:\n got %+v\nwant %+v", got.info, want.info)
	}
	if !reflect.DeepEqual(got.worlds, want.worlds) {
		t.Fatalf("posterior support diverged after recovery")
	}
	if !reflect.DeepEqual(got.probs, want.probs) {
		t.Fatalf("posterior probabilities diverged after recovery:\n got %v\nwant %v", got.probs, want.probs)
	}
	if got.entropy != want.entropy {
		t.Fatalf("entropy diverged after recovery: %v != %v", got.entropy, want.entropy)
	}
}

// runRounds drives n select→merge rounds against a session, answering
// deterministically, and returns the last answer set submitted.
func runRounds(t *testing.T, s *Session, now time.Time, n int) *AnswersRequest {
	t.Helper()
	var last *AnswersRequest
	for i := 0; i < n; i++ {
		sel, _, err := s.Select(context.Background(), now, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Done || len(sel.Tasks) == 0 {
			t.Fatalf("round %d: selection done early", i)
		}
		answers := make([]bool, len(sel.Tasks))
		for j, f := range sel.Tasks {
			answers[j] = f%2 == 0
		}
		v := sel.Version
		last = &AnswersRequest{Tasks: sel.Tasks, Answers: answers, Version: &v}
		if resp, err := s.Merge(context.Background(), now, last); err != nil || !resp.Merged {
			t.Fatalf("round %d: merge = %+v, %v", i, resp, err)
		}
	}
	return last
}

// TestManagerCrashRecoveryBitIdentical is the acceptance kill-and-restart
// test at the manager level: merges acknowledged by one manager, abandoned
// without any shutdown (the SIGKILL analogue — nothing was flushed), must
// be served bit-identically by a second manager over the same directory,
// and an idempotent replay of the last answer set must not double-spend.
func TestManagerCrashRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)

	m1 := newFileManager(t, dir, Config{Clock: func() time.Time { return now }})
	s1, err := m1.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	last := runRounds(t, s1, now, 2)
	want := fingerprint(s1, now)
	// No m1.Close(): the process just died.

	m2 := newFileManager(t, dir, Config{Clock: func() time.Time { return now }})
	defer m2.Close()
	s2, err := m2.Get(context.Background(), s1.ID())
	if err != nil {
		t.Fatalf("recovery Get: %v", err)
	}
	if s2 == s1 {
		t.Fatal("second manager returned the first manager's session object")
	}
	requireIdentical(t, fingerprint(s2, now), want)

	// Idempotent replay of the last acknowledged answer set: recognized
	// from the recovered merge log, not re-applied.
	resp, err := s2.Merge(context.Background(), now, last)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Merged {
		t.Fatal("replayed answer set was re-applied after recovery")
	}
	if resp.Spent != want.info.Spent || resp.Version != want.info.Version {
		t.Fatalf("replay double-spent: %+v vs %+v", resp.SessionInfo, want.info)
	}

	// The loop continues where it left off: the next round merges cleanly.
	runRounds(t, s2, now, 1)
}

// TestManagerCrashRecoveryExplicitJoint covers the other prior path: a
// correlated prior sent as an explicit wire joint (raw, unnormalized
// weights) must round-trip through the store and replay bit-identically.
func TestManagerCrashRecoveryExplicitJoint(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	_, prior := dist.RunningExample()
	jw := NewWireJoint(prior)
	// Unnormalized weights exercise the raw-prior storage: the store must
	// keep what the client sent, not a renormalization of it.
	for i := range jw.Probs {
		jw.Probs[i] *= 3
	}
	req := &CreateSessionRequest{Joint: &jw, Pc: 0.8, K: 2, Budget: 8}

	m1 := newFileManager(t, dir, Config{Clock: func() time.Time { return now }})
	s1, err := m1.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	runRounds(t, s1, now, 2)
	want := fingerprint(s1, now)

	m2 := newFileManager(t, dir, Config{Clock: func() time.Time { return now }})
	defer m2.Close()
	s2, err := m2.Get(context.Background(), s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, fingerprint(s2, now), want)
}

// TestManagerCrashRecoveryFreshSession: a session with zero merges (only
// the creation snapshot) recovers too — creation itself is durable.
func TestManagerCrashRecoveryFreshSession(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	m1 := newFileManager(t, dir, Config{Clock: func() time.Time { return now }})
	s1, err := m1.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(s1, now)

	m2 := newFileManager(t, dir, Config{Clock: func() time.Time { return now }})
	defer m2.Close()
	s2, err := m2.Get(context.Background(), s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, fingerprint(s2, now), want)
}

// TestManagerDoneLatchSurvivesRestart: a session whose last selection
// proved nothing uncertain remains (the done latch) reports Done after
// recovery without re-running the selection sweep.
func TestManagerDoneLatchSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	m1 := newFileManager(t, dir, Config{Clock: func() time.Time { return now }})
	// A certain prior: one world. The first selection finds no task with
	// positive utility and latches done.
	s1, err := m1.Create(context.Background(), &CreateSessionRequest{
		Marginals: []float64{1, 1, 1}, Pc: 0.8, K: 2, Budget: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	sel, _, err := s1.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Done {
		t.Fatalf("certain prior selected tasks: %+v", sel)
	}

	m2 := newFileManager(t, dir, Config{Clock: func() time.Time { return now }})
	defer m2.Close()
	s2, err := m2.Get(context.Background(), s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	if info := s2.Info(context.Background(), now, false); !info.Done {
		t.Fatalf("done latch lost across restart: %+v", info)
	}
}

// TestManagerTTLUnloadReloadsExactly is the eviction round-trip edge case:
// over a durable store the janitor unloads (flushes) instead of dropping,
// and the next touch reloads the identical session.
func TestManagerTTLUnloadReloadsExactly(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m := newFileManager(t, dir, Config{TTL: time.Minute, Clock: clk.now})
	defer m.Close()

	s, err := m.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	runRounds(t, s, clk.now(), 1)
	want := fingerprint(s, clk.now())

	clk.advance(2 * time.Minute)
	if n := m.Sweep(clk.now()); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	if unloads, drops := m.metrics.SessionsUnloaded.Load(), m.metrics.SessionsEvicted.Load(); unloads != 1 || drops != 0 {
		t.Fatalf("eviction counters: unloads=%d drops=%d", unloads, drops)
	}
	if m.Len() != 0 {
		t.Fatalf("Len after unload = %d", m.Len())
	}

	// The next touch reloads lazily — same state, not an expired error.
	got, err := m.Get(context.Background(), s.ID())
	if err != nil {
		t.Fatalf("Get after unload: %v", err)
	}
	if got == s {
		t.Fatal("unloaded session object was cached")
	}
	// LastAccess moved (the reload is an access), so compare it apart.
	now := clk.now()
	requireIdentical(t, fingerprint(got, now), sessionFingerprint{
		info:    want.info,
		worlds:  want.worlds,
		probs:   want.probs,
		entropy: want.entropy,
	})
	if m.Len() != 1 {
		t.Fatalf("Len after reload = %d", m.Len())
	}
}

// TestManagerUnloadRetiresStalePointers: a handler that obtained a session
// pointer before the janitor unloaded it must not be able to commit a
// merge to the orphan instance (which the manager's map no longer serves).
// The orphan refuses with a retired error, and re-resolving through the
// manager lands on the reloaded successor with the full history.
func TestManagerUnloadRetiresStalePointers(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m := newFileManager(t, dir, Config{TTL: time.Minute, Clock: clk.now})
	defer m.Close()

	s1, err := m.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	last := runRounds(t, s1, clk.now(), 1)

	clk.advance(2 * time.Minute)
	if n := m.Sweep(clk.now()); n != 1 {
		t.Fatalf("Sweep evicted %d", n)
	}

	// The stale pointer refuses mutations…
	if _, err := s1.Merge(context.Background(), clk.now(), last); !errors.Is(err, errSessionRetired) {
		t.Fatalf("merge on retired instance = %v, want errSessionRetired", err)
	}
	if _, _, err := s1.Select(context.Background(), clk.now(), 0); !errors.Is(err, errSessionRetired) {
		t.Fatalf("select on retired instance = %v, want errSessionRetired", err)
	}
	// …and the re-resolved instance serves the full history: the replayed
	// answer set is recognized as already applied.
	s2, err := m.Get(context.Background(), s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s2.Merge(context.Background(), clk.now(), last)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Merged {
		t.Fatal("successor re-applied the already-merged answer set")
	}
}

// TestOnSessionReresolvesEvictedPointer hands onSession a pointer the
// janitor already unloaded: it must re-resolve the ID exactly once and run
// the call on the reloaded successor.
func TestOnSessionReresolvesEvictedPointer(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m := newFileManager(t, t.TempDir(), Config{TTL: time.Minute, Clock: clk.now})
	defer m.Close()

	ctx := context.Background()
	s1, err := m.Create(ctx, testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	runRounds(t, s1, clk.now(), 1)
	clk.advance(2 * time.Minute)
	if n := m.Sweep(clk.now()); n != 1 {
		t.Fatalf("Sweep evicted %d", n)
	}

	var calls []*Session
	resp, err := onSession(ctx, m, s1.ID(), s1, func(s *Session) (*SelectResponse, error) {
		calls = append(calls, s)
		resp, _, err := s.Select(ctx, clk.now(), 0)
		return resp, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != s1 || calls[1] == s1 {
		t.Fatalf("onSession called f on %v; want the evicted pointer, then one successor", calls)
	}
	if resp.Version != 1 || len(resp.Tasks) == 0 {
		t.Fatalf("select on the successor = %+v; want a batch at v1", resp)
	}
	if m.Len() != 1 {
		t.Fatalf("resident sessions = %d; want the reloaded successor", m.Len())
	}
}

// TestManagerConcurrentMergesFileStore races merges over many sessions
// against one file store under -race: per-session serialization plus
// per-stripe store locking must keep every log consistent, and a restart
// must recover exactly what the live managers acknowledged.
func TestManagerConcurrentMergesFileStore(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	m := newFileManager(t, dir, Config{Clock: func() time.Time { return now }})

	const sessions = 6
	ids := make([]string, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := testCreateReq()
			req.Budget = 6
			s, err := m.Create(context.Background(), req)
			if err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
			ids[i] = s.ID()
			// Two goroutines hammer the same session; version conflicts
			// are expected, lost or doubled merges are not.
			var inner sync.WaitGroup
			for w := 0; w < 2; w++ {
				inner.Add(1)
				go func() {
					defer inner.Done()
					for r := 0; r < 6; r++ {
						sel, _, err := s.Select(context.Background(), now, 0)
						if err != nil || sel.Done || len(sel.Tasks) == 0 {
							return
						}
						answers := make([]bool, len(sel.Tasks))
						v := sel.Version
						_, err = s.Merge(context.Background(), now, &AnswersRequest{Tasks: sel.Tasks, Answers: answers, Version: &v})
						if err != nil && !errors.Is(err, ErrVersionConflict) && !errors.Is(err, ErrBudgetExhausted) {
							t.Errorf("merge: %v", err)
							return
						}
					}
				}()
			}
			inner.Wait()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	fresh := newFileManager(t, dir, Config{Clock: func() time.Time { return now }})
	defer fresh.Close()
	for _, id := range ids {
		live, err := m.Get(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := fresh.Get(context.Background(), id)
		if err != nil {
			t.Fatalf("recovering %s: %v", id, err)
		}
		requireIdentical(t, fingerprint(rec, now), fingerprint(live, now))
	}
}

// TestServerExpiredSessionOverTheWire: over a volatile store, a TTL-evicted
// session answers 410 Gone with the machine-readable "expired" code — not
// a generic 404 — all the way through the HTTP layer.
func TestServerExpiredSessionOverTheWire(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	logBuf := &lockedBuffer{}
	svc, ts := newTestServer(t, Config{
		TTL:    time.Minute,
		Logger: slog.New(slog.NewTextHandler(logBuf, nil)),
		Clock:  clk.now,
	})

	var info SessionInfo
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info); s != http.StatusCreated {
		t.Fatalf("create status %d", s)
	}
	clk.advance(2 * time.Minute)
	if n := svc.Manager().Sweep(clk.now()); n != 1 {
		t.Fatalf("Sweep evicted %d", n)
	}

	var errResp ErrorResponse
	if s := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+info.ID, nil, &errResp); s != http.StatusGone {
		t.Fatalf("expired get status %d (%+v)", s, errResp)
	}
	if errResp.Code != CodeExpired {
		t.Fatalf("expired code %q, want %q", errResp.Code, CodeExpired)
	}
	if svc.Metrics().SessionsEvicted.Load() != 1 {
		t.Fatalf("evicted counter %d", svc.Metrics().SessionsEvicted.Load())
	}
	// The eviction satellite: a log line names the expired session.
	logged := logBuf.String()
	found := false
	for _, line := range strings.Split(logged, "\n") {
		if strings.Contains(line, info.ID) && strings.Contains(line, "expired") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no eviction log line for %s in %q", info.ID, logged)
	}
}

// lockedBuffer is a concurrency-safe log sink for slog handlers in tests.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerRecoveryOverTheWire: the HTTP layer serves a recovered session
// transparently — same ID, same posterior — after the whole server stack is
// rebuilt over the same data directory, and the recovery counter ticks.
func TestServerRecoveryOverTheWire(t *testing.T) {
	dir := t.TempDir()
	fs1, err := store.NewFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Store: fs1})

	var info SessionInfo
	doJSON(t, http.MethodPost, ts1.URL+"/v1/sessions", testCreateReq(), &info)
	var sel SelectResponse
	doJSON(t, http.MethodPost, ts1.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel)
	answers := make([]bool, len(sel.Tasks))
	var merged AnswersResponse
	doJSON(t, http.MethodPost, ts1.URL+"/v1/sessions/"+info.ID+"/answers",
		AnswersRequest{Tasks: sel.Tasks, Answers: answers, Version: &sel.Version}, &merged)
	var before SessionInfo
	doJSON(t, http.MethodGet, ts1.URL+"/v1/sessions/"+info.ID+"?rounds=true", nil, &before)
	ts1.Close() // the listener dies; the first stack is abandoned un-drained

	fs2, err := store.NewFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc2, ts2 := newTestServer(t, Config{Store: fs2})
	var after SessionInfo
	if s := doJSON(t, http.MethodGet, ts2.URL+"/v1/sessions/"+info.ID+"?rounds=true", nil, &after); s != http.StatusOK {
		t.Fatalf("recovered get status %d", s)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("recovered session diverged over the wire:\n got %+v\nwant %+v", after, before)
	}
	if svc2.Metrics().SessionsRecovered.Load() != 1 {
		t.Fatalf("recovered counter %d", svc2.Metrics().SessionsRecovered.Load())
	}
}
