package service

import (
	"context"
	"errors"
	"sync"
	"testing"

	"crowdfusion/internal/cluster"
	"crowdfusion/internal/store"
)

// switchOwnership is a mutable ownership for tests: sessions are owned by
// whichever node the switch currently names, computed per ID by a pluggable
// partition function.
type switchOwnership struct {
	mu    sync.Mutex
	self  string
	owner func(id string) string
}

func (o *switchOwnership) Owns(id string) bool { return o.Owner(id) == o.self }

func (o *switchOwnership) Self() string { return o.self }

func (o *switchOwnership) Owner(id string) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.owner(id)
}

func (o *switchOwnership) setOwner(f func(id string) string) {
	o.mu.Lock()
	o.owner = f
	o.mu.Unlock()
}

func ownAll(string) string { return "http://self:1" }

// TestCreateMintsOwnedIDs: under a partition that rejects most of the ID
// space, Create must still return IDs this node owns — placement is
// rejection sampling over the uniform ID space.
func TestCreateMintsOwnedIDs(t *testing.T) {
	// Own only IDs whose first hex digit is 0..3 (a quarter of the space).
	own := &switchOwnership{self: "http://self:1", owner: func(id string) string {
		if id[0] <= '3' {
			return "http://self:1"
		}
		return "http://other:2"
	}}
	m := newManager(Config{ownership: own})
	defer m.Close()
	for i := 0; i < 8; i++ {
		s, err := m.Create(context.Background(), testCreateReq())
		if err != nil {
			t.Fatal(err)
		}
		if !own.Owns(s.ID()) {
			t.Fatalf("Create minted non-owned id %s", s.ID())
		}
	}
}

// TestGetRedirectsAndRelinquishes: losing ownership of a resident session
// must flush it, drop it from memory, and answer with *NotOwnerError;
// regaining ownership must reload the identical state from the store.
func TestGetRedirectsAndRelinquishes(t *testing.T) {
	own := &switchOwnership{self: "http://self:1", owner: ownAll}
	dir := t.TempDir()
	m := newFileManager(t, dir, Config{ownership: own})
	defer m.Close()

	s, err := m.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	sel, _, err := s.Select(context.Background(), m.Now(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge(context.Background(), m.Now(), &AnswersRequest{
		Tasks: sel.Tasks, Answers: []bool{true, false}, Version: &sel.Version,
	}); err != nil {
		t.Fatal(err)
	}
	before := fingerprint(s, m.Now())

	// Ownership moves away: the next touch redirects and relinquishes.
	own.setOwner(func(string) string { return "http://other:2" })
	_, err = m.Get(context.Background(), id)
	var notOwner *NotOwnerError
	if !errors.As(err, &notOwner) || notOwner.Owner != "http://other:2" {
		t.Fatalf("Get after ownership change = %v, want NotOwnerError{Owner: other}", err)
	}
	if m.Len() != 0 {
		t.Fatalf("relinquished session still counted: Len = %d", m.Len())
	}
	// The relinquished instance is retired: a stale handler pointer cannot
	// commit to it anymore.
	if _, _, err := s.Select(context.Background(), m.Now(), 0); !errors.Is(err, errSessionRetired) {
		t.Fatalf("stale instance Select = %v, want errSessionRetired", err)
	}
	// Delete is gated the same way.
	if _, err := m.Delete(context.Background(), id); !errors.As(err, &notOwner) {
		t.Fatalf("Delete on non-owned = %v, want NotOwnerError", err)
	}

	// Ownership returns: the session reloads from the store bit-identically
	// — the same record-replay path a crash recovery takes.
	own.setOwner(ownAll)
	restored, err := m.Get(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if restored == s {
		t.Fatal("Get returned the retired instance instead of a reload")
	}
	requireIdentical(t, fingerprint(restored, m.Now()), before)
}

// TestRelinquishNotOwned: a topology change hands off exactly the re-homed
// resident sessions.
func TestRelinquishNotOwned(t *testing.T) {
	own := &switchOwnership{self: "http://self:1", owner: ownAll}
	m := newFileManager(t, t.TempDir(), Config{ownership: own})
	defer m.Close()

	var ids []string
	for i := 0; i < 6; i++ {
		s, err := m.Create(context.Background(), testCreateReq())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID())
	}
	// Re-home the sessions whose first hex digit is even.
	moved := 0
	for _, id := range ids {
		if id[0]%2 == 0 {
			moved++
		}
	}
	own.setOwner(func(id string) string {
		if id[0]%2 == 0 {
			return "http://other:2"
		}
		return "http://self:1"
	})
	if got := m.RelinquishNotOwned(); got != moved {
		t.Fatalf("RelinquishNotOwned = %d, want %d", got, moved)
	}
	if m.Len() != len(ids)-moved {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ids)-moved)
	}
	// Still-owned sessions stayed resident and serve without a reload.
	for _, id := range ids {
		if id[0]%2 != 0 {
			if _, err := m.Get(context.Background(), id); err != nil {
				t.Fatalf("owned session %s unavailable after rebalance: %v", id, err)
			}
		}
	}
}

// TestRingIsManagerOwnership wires a real cluster.Ring as the manager's
// Cluster and checks the interfaces actually meet: created sessions land
// on self, foreign IDs redirect to the ring's owner.
func TestRingIsManagerOwnership(t *testing.T) {
	ring, err := cluster.New(cluster.Config{
		Self:  "http://a:1",
		Peers: []string{"http://a:1", "http://b:2", "http://c:3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(Config{Cluster: ring, Store: store.NewMemory()})
	defer m.Close()

	s, err := m.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	if !ring.Owns(s.ID()) {
		t.Fatalf("created session %s not owned by self per ring", s.ID())
	}
	// Find an ID the ring places elsewhere and probe it.
	for i := 0; ; i++ {
		id, err := newID()
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owns(id) {
			continue
		}
		_, err = m.Get(context.Background(), id)
		var notOwner *NotOwnerError
		if !errors.As(err, &notOwner) || notOwner.Owner != ring.Owner(id) {
			t.Fatalf("Get(foreign id) = %v, want NotOwnerError{%s}", err, ring.Owner(id))
		}
		break
	}
}
