package service

import (
	"context"
	"errors"
	"testing"

	"crowdfusion/internal/chaos"
	"crowdfusion/internal/store"
)

// TestInjectedPersistFailureIsAtomic drives the manager through the chaos
// store: an injected append failure (the fsync-died simulation) must
// surface as ErrStore with the merge NOT applied, the client's retry must
// then commit exactly once, and a crash-restart over the same dir must
// replay to the identical posterior — the acknowledged-implies-durable
// contract under injected faults.
func TestInjectedPersistFailureIsAtomic(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.NewFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := chaos.Wrap(fs)
	m := newManager(Config{Store: cs})

	s, err := m.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	runRounds(t, s, m.Now(), 1)
	beforeInfo := s.Info(context.Background(), m.Now(), false)

	sel, _, err := s.Select(context.Background(), m.Now(), 0)
	if err != nil {
		t.Fatal(err)
	}
	req := &AnswersRequest{
		Tasks: sel.Tasks, Answers: make([]bool, len(sel.Tasks)), Version: &sel.Version,
	}
	cs.FailAppends(1)
	if _, err := s.Merge(context.Background(), m.Now(), req); !errors.Is(err, ErrStore) {
		t.Fatalf("merge under injected fault = %v, want ErrStore", err)
	}
	if got := s.Info(context.Background(), m.Now(), false); got.Version != beforeInfo.Version || got.Spent != beforeInfo.Spent {
		t.Fatalf("refused merge mutated state: %+v vs %+v", got, beforeInfo)
	}
	// The fault budget is spent: the retry commits exactly once.
	resp, err := s.Merge(context.Background(), m.Now(), req)
	if err != nil || !resp.Merged {
		t.Fatalf("retry = %+v, %v", resp, err)
	}
	after := fingerprint(s, m.Now())

	// Crash (no Close — nothing flushed) and restart over the same dir.
	m2 := newFileManager(t, dir, Config{})
	defer m2.Close()
	restored, err := m2.Get(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, fingerprint(restored, m2.Now()), after)
}
