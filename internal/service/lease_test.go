package service

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"crowdfusion/internal/store"
)

// newFakeClock builds the shared test clock (fakeClock lives in
// manager_test.go) at a fixed epoch, shared between managers simulating
// nodes with a common view of time.
func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(9000, 0).UTC()} }

// leaseRing is an ownership stub with a liveness view, standing in for
// cluster.Ring in the steal-policy tests: this node owns everything, and
// alive says which peers it can still see.
type leaseRing struct {
	self  string
	mu    sync.Mutex
	alive map[string]bool
}

func (o *leaseRing) Owns(string) bool    { return true }
func (o *leaseRing) Owner(string) string { return o.self }
func (o *leaseRing) Self() string        { return o.self }

func (o *leaseRing) PeerAlive(addr string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.alive[addr]
}

func (o *leaseRing) setAlive(addr string, up bool) {
	o.mu.Lock()
	o.alive[addr] = up
	o.mu.Unlock()
}

// TestLeaseFencesDualWriter is the tentpole scenario at the manager level:
// node B adopts a session from a node A it believes dead (stealing the
// lease at a higher epoch), and A — still running, merely partitioned —
// has its in-flight merge refused with FencedError instead of forking the
// history. The adopted state is bit-identical, and A converges to a
// redirect.
func TestLeaseFencesDualWriter(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	const selfA, selfB = "http://a:1", "http://b:2"

	ringA := &leaseRing{self: selfA, alive: map[string]bool{selfB: true}}
	mA := newFileManager(t, dir, Config{
		ownership: ringA,
		LeaseTTL:  time.Minute,
		// A huge heartbeat keeps the background loop out of the test;
		// renewal is driven explicitly.
		LeaseRenew: time.Hour,
		Clock:      clk.now,
	})
	defer mA.Close()

	sA, err := mA.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	id := sA.ID()
	runRounds(t, sA, clk.now(), 1)
	before := fingerprint(sA, clk.now())
	if mA.LeasesHeld() != 1 {
		t.Fatalf("A holds %d leases, want 1", mA.LeasesHeld())
	}

	// B cannot see A (netsplit view) and the ring has re-homed the
	// session to B: adoption steals the unexpired lease at a higher epoch.
	ringB := &leaseRing{self: selfB, alive: map[string]bool{selfA: false}}
	mB := newFileManager(t, dir, Config{
		ownership:  ringB,
		LeaseTTL:   time.Minute,
		LeaseRenew: time.Hour,
		Clock:      clk.now,
	})
	defer mB.Close()

	sB, err := mB.Get(context.Background(), id)
	if err != nil {
		t.Fatalf("B adoption: %v", err)
	}
	requireIdentical(t, fingerprint(sB, clk.now()), before)
	lease, err := mB.Store().GetLease(id)
	if err != nil || lease == nil {
		t.Fatalf("lease after steal: %v %v", lease, err)
	}
	if lease.Owner != selfB || lease.Epoch != 2 {
		t.Fatalf("lease after steal: %+v", lease)
	}

	// A's revived in-flight merge — the dual-writer moment — must be
	// refused fenced, with the envelope pointing at B.
	sel, _, err := sA.Select(context.Background(), clk.now(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sA.Merge(context.Background(), clk.now(), &AnswersRequest{
		Tasks: sel.Tasks, Answers: make([]bool, len(sel.Tasks)), Version: &sel.Version,
	})
	var fenced *FencedError
	if !errors.As(err, &fenced) {
		t.Fatalf("deposed merge = %v, want FencedError", err)
	}
	if fenced.Owner != selfB {
		t.Fatalf("fenced owner = %q, want %q", fenced.Owner, selfB)
	}

	// B's history is untouched by the refused write, and B keeps serving.
	requireIdentical(t, fingerprint(sB, clk.now()), before)
	runRounds(t, sB, clk.now(), 1)

	// A's next heartbeat notices the deposition and retires the instance;
	// re-resolving on A bounces to B because A can still see B alive.
	if _, lost := mA.RenewHeldLeases(clk.now()); lost != 1 {
		t.Fatalf("A renewal lost %d leases, want 1", lost)
	}
	if mA.Len() != 0 || mA.LeasesHeld() != 0 {
		t.Fatalf("A still resident after deposition: len=%d held=%d", mA.Len(), mA.LeasesHeld())
	}
	_, err = mA.Get(context.Background(), id)
	if !errors.As(err, &fenced) || fenced.Owner != selfB {
		t.Fatalf("A re-resolve = %v, want FencedError{Owner: b}", err)
	}

	// Once A also sees B dead (B really gone, not just partitioned), A may
	// steal back — at a yet higher epoch, so B's stranded writes fence too.
	ringA.setAlive(selfB, false)
	sA2, err := mA.Get(context.Background(), id)
	if err != nil {
		t.Fatalf("A steal-back: %v", err)
	}
	if sA2.leaseEpoch != 3 {
		t.Fatalf("steal-back epoch = %d, want 3", sA2.leaseEpoch)
	}
}

// TestLeaseExpiryAllowsTakeoverWithoutSteal: a holder that stops renewing
// (crashed, or its clock runs slow) is adopted after TTL by plain
// acquisition — and its stale writes still fence.
func TestLeaseExpiryAllowsTakeoverWithoutSteal(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	mA := newFileManager(t, dir, Config{
		ownership: &leaseRing{self: "http://a:1"}, LeaseTTL: time.Minute, LeaseRenew: time.Hour, Clock: clk.now,
	})
	defer mA.Close()
	sA, err := mA.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	id := sA.ID()

	// B considers A alive — so it would NOT steal — but the lease has
	// expired: takeover needs no steal and no liveness opinion.
	clk.advance(2 * time.Minute)
	ringB := &leaseRing{self: "http://b:2", alive: map[string]bool{"http://a:1": true}}
	mB := newFileManager(t, dir, Config{
		ownership: ringB, LeaseTTL: time.Minute, LeaseRenew: time.Hour, Clock: clk.now,
	})
	defer mB.Close()
	if _, err := mB.Get(context.Background(), id); err != nil {
		t.Fatalf("adoption after expiry: %v", err)
	}

	sel, _, err := sA.Select(context.Background(), clk.now(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sA.Merge(context.Background(), clk.now(), &AnswersRequest{
		Tasks: sel.Tasks, Answers: make([]bool, len(sel.Tasks)), Version: &sel.Version,
	})
	var fenced *FencedError
	if !errors.As(err, &fenced) {
		t.Fatalf("expired holder's merge = %v, want FencedError", err)
	}
}

// TestServerFencedEnvelope covers the wire mapping: a fenced write surfaces
// as HTTP 421 with code "fenced" and the lease holder's address in the
// envelope, bumps the fenced metric, and retires the local instance.
func TestServerFencedEnvelope(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.NewFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Config{
		Store: fs, LeaseTTL: time.Minute, LeaseRenew: time.Hour, TTL: -1,
	})

	var info SessionInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", testCreateReq(), &info); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	var sel SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel); code != http.StatusOK {
		t.Fatalf("select: HTTP %d", code)
	}

	// Another process steals the lease out from under the server.
	fs2, err := store.NewFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if _, err := fs2.StealLease(info.ID, "http://other:9", time.Minute, time.Now()); err != nil {
		t.Fatal(err)
	}

	var errResp ErrorResponse
	code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/answers", &AnswersRequest{
		Tasks: sel.Tasks, Answers: make([]bool, len(sel.Tasks)), Version: &sel.Version,
	}, &errResp)
	if code != http.StatusMisdirectedRequest {
		t.Fatalf("fenced merge: HTTP %d (%+v)", code, errResp)
	}
	if errResp.Code != CodeFenced || errResp.Owner != "http://other:9" {
		t.Fatalf("fenced envelope: %+v", errResp)
	}
	if got := svc.Metrics().FencedWritesRefused.Load(); got < 1 {
		t.Fatalf("fenced_writes_refused = %d, want >= 1", got)
	}
	// The stale instance was retired, not left serving from memory.
	if svc.Manager().Len() != 0 {
		t.Fatalf("fenced session still resident: %d", svc.Manager().Len())
	}
}

// TestServerFencedDoneLatch is the select-side row of the fenced envelope:
// a deposed owner whose sweep finds nothing uncertain must not latch done
// from memory. The done op's fenced persist answers 421 "fenced" naming
// the new owner, and the stale instance is retired like a fenced merge's.
func TestServerFencedDoneLatch(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.NewFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Config{
		Store: fs, LeaseTTL: time.Minute, LeaseRenew: time.Hour, TTL: -1,
	})

	req := testCreateReq()
	req.Marginals = []float64{1, 0, 1} // nothing uncertain: the first sweep latches done
	var info SessionInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", req, &info); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	fs2, err := store.NewFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if _, err := fs2.StealLease(info.ID, "http://other:9", time.Minute, time.Now()); err != nil {
		t.Fatal(err)
	}

	var errResp ErrorResponse
	code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &errResp)
	if code != http.StatusMisdirectedRequest {
		t.Fatalf("fenced done latch: HTTP %d (%+v)", code, errResp)
	}
	if errResp.Code != CodeFenced || errResp.Owner != "http://other:9" {
		t.Fatalf("fenced envelope: %+v", errResp)
	}
	if svc.Manager().Len() != 0 {
		t.Fatalf("fenced session still resident: %d", svc.Manager().Len())
	}
}

// TestLeaseRenewalRacesEvictionAndPartials exercises the lease bookkeeping
// under -race: heartbeat renewals, TTL sweeps (unload + lazy reload), and
// concurrent partial answers all hammer one session. The assertions are
// weak on purpose — the race detector and the absence of deadlock are the
// test.
func TestLeaseRenewalRacesEvictionAndPartials(t *testing.T) {
	m := newFileManager(t, t.TempDir(), Config{
		TTL: 50 * time.Millisecond, ownership: &leaseRing{self: "http://self:1"},
		LeaseTTL: time.Minute, LeaseRenew: time.Hour,
	})
	defer m.Close()
	s, err := m.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	hammer := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	hammer(func() { m.RenewHeldLeases(m.Now()) })
	// Sweeping far in the future evicts (unloads) whatever is resident;
	// the workers' next touch reloads it and re-acquires the lease.
	hammer(func() { m.Sweep(m.Now().Add(time.Hour)) })
	for range 3 {
		hammer(func() {
			sess, err := m.Get(context.Background(), id)
			if err != nil {
				return
			}
			sel, _, err := sess.Select(context.Background(), m.Now(), 0)
			if err != nil || len(sel.Tasks) == 0 {
				return
			}
			// Submit the batch one judgment at a time: partial journaling
			// races the renewal and the sweep on the store.
			for i, task := range sel.Tasks {
				_, _ = sess.Merge(context.Background(), m.Now(), &AnswersRequest{
					Tasks: []int{task}, Answers: []bool{i%2 == 0},
					Version: &sel.Version, Partial: true,
				})
			}
		})
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The session must still be adoptable and internally consistent.
	if _, err := m.Get(context.Background(), id); err != nil {
		t.Fatalf("session unusable after hammering: %v", err)
	}
	if held := m.LeasesHeld(); held != 1 {
		t.Fatalf("leases held = %d, want 1", held)
	}
}

// TestStaleFencedSignalSparesSuccessor: a fenced signal that arrives after
// this node already retired the fenced instance and adopted a successor
// (the handler that saw the refused write runs late) must not retire the
// successor. The signal names the epoch that was refused, and only an
// instance at that epoch is dropped.
func TestStaleFencedSignalSparesSuccessor(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	const selfA, selfB = "http://a:1", "http://b:2"
	ringA := &leaseRing{self: selfA, alive: map[string]bool{selfB: true}}
	mA := newFileManager(t, dir, Config{
		ownership: ringA, LeaseTTL: time.Minute, LeaseRenew: time.Hour, Clock: clk.now,
	})
	defer mA.Close()
	ringB := &leaseRing{self: selfB, alive: map[string]bool{selfA: false}}
	mB := newFileManager(t, dir, Config{
		ownership: ringB, LeaseTTL: time.Minute, LeaseRenew: time.Hour, Clock: clk.now,
	})
	defer mB.Close()

	x, err := mA.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	id := x.ID()
	// B steals the lease (epoch 2); X's next write is refused.
	if _, err := mB.Get(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	sel, _, err := x.Select(context.Background(), clk.now(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = x.Merge(context.Background(), clk.now(), &AnswersRequest{
		Tasks: sel.Tasks, Answers: make([]bool, len(sel.Tasks)), Version: &sel.Version,
	})
	var fenced *FencedError
	if !errors.As(err, &fenced) {
		t.Fatalf("deposed merge = %v, want FencedError", err)
	}

	// The heartbeat retires X, then A adopts a successor Y from B (now
	// seen dead) at epoch 3.
	if _, lost := mA.RenewHeldLeases(clk.now()); lost != 1 {
		t.Fatalf("A renewal lost %d leases, want 1", lost)
	}
	ringA.setAlive(selfB, false)
	y, err := mA.Get(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}

	// The late handler call for X's refused write.
	mA.RetireFenced(id, fenced.epoch)
	if mA.Len() != 1 || mA.LeasesHeld() != 1 {
		t.Fatalf("stale fenced signal dropped the successor: len=%d held=%d", mA.Len(), mA.LeasesHeld())
	}
	if _, _, err := y.Select(context.Background(), clk.now(), 0); err != nil {
		t.Fatalf("successor Select = %v", err)
	}
}
