package store

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// eachStore runs one conformance test against every SessionStore
// implementation — the suite the ISSUE's acceptance criteria require both
// stores to pass.
func eachStore(t *testing.T, run func(t *testing.T, s SessionStore)) {
	t.Helper()
	impls := []struct {
		name string
		make func(t *testing.T) SessionStore
	}{
		{"memory", func(t *testing.T) SessionStore { return NewMemory() }},
		{"file", func(t *testing.T) SessionStore {
			fs, err := NewFile(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			s := impl.make(t)
			defer s.Close()
			run(t, s)
		})
	}
}

// testRecord builds a representative record: an explicit joint prior and
// a journal of two merges.
func testRecord(id string) *Record {
	return &Record{
		ID:       id,
		Selector: "Approx+Prune+Pre",
		Pc:       0.8,
		K:        2,
		Budget:   6,
		Seed:     7,
		Prior: Prior{
			N:      3,
			Worlds: []uint64{0b001, 0b010, 0b110},
			Probs:  []float64{0.2, 0.5, 0.3},
		},
		Created:    time.Unix(1000, 0).UTC(),
		LastAccess: time.Unix(1000, 0).UTC(),
		Ops: []Op{
			{Kind: OpMerge, Version: 0, Tasks: []int{0, 1}, Answers: []bool{true, false}},
			{Kind: OpMerge, Version: 1, Tasks: []int{2}, Answers: []bool{true}},
		},
	}
}

func TestConformancePutGetRoundTrip(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-roundtrip")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip mutated record:\n got %+v\nwant %+v", got, rec)
		}
		// The returned record is a private copy: mutating it must not
		// write through to the store.
		got.Ops[0].Answers[0] = false
		again, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Ops[0].Answers[0] {
			t.Fatal("Get returned a shared record")
		}
	})
}

func TestConformanceMarginalsPriorRoundTrip(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := &Record{
			ID:       "sess-marginals",
			Selector: "Random",
			Pc:       0.75,
			K:        1,
			Budget:   4,
			Prior:    Prior{Marginals: []float64{0.5, 0.63, 0.58}},
			Created:  time.Unix(2000, 0).UTC(),
		}
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Prior.Marginals, rec.Prior.Marginals) || got.Prior.N != 0 {
			t.Fatalf("marginals prior mutated: %+v", got.Prior)
		}
	})
}

func TestConformanceAppendFoldsIntoGet(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-append")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		op := Op{Kind: OpMerge, Version: 2, Tasks: []int{1}, Answers: []bool{false},
			Time: time.Unix(3000, 0).UTC()}
		if err := s.Append(rec.ID, op); err != nil {
			t.Fatal(err)
		}
		done := Op{Kind: OpDone, Version: 3}
		if err := s.Append(rec.ID, done); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ops) != 4 || !reflect.DeepEqual(got.Ops[2], op) || !reflect.DeepEqual(got.Ops[3], done) {
			t.Fatalf("appended ops not folded: %+v", got.Ops)
		}
		if !got.LastAccess.Equal(time.Unix(3000, 0).UTC()) {
			t.Fatalf("op time did not advance last access: %v", got.LastAccess)
		}
		// A merge at the latch's version supersedes it.
		if err := s.Append(rec.ID, Op{Kind: OpMerge, Version: 3, Tasks: []int{0}, Answers: []bool{true}}); err != nil {
			t.Fatal(err)
		}
		got, err = s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ops) != 4 || got.Ops[3].Kind != OpMerge {
			t.Fatalf("merge after done latch: %+v", got.Ops)
		}
	})
}

func TestConformanceAppendEnforcesVersionOrder(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-dedup")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		// An op already in the snapshot is rejected: the service
		// deduplicates retries in memory, so a stale append signals a
		// divergent second writer and must not be silently dropped. A
		// version gap is rejected too: it could never replay. The rule is
		// the same for every kind, and an unknown kind never lands.
		for _, op := range []Op{
			rec.Ops[0],
			{Kind: OpMerge, Version: 5, Tasks: []int{0}, Answers: []bool{true}},
			{Kind: OpObserve, Version: 1, Tasks: []int{0}, Answers: []bool{true}, Workers: []string{"w1"}},
			{Kind: OpObserve, Version: 3, Tasks: []int{0}, Answers: []bool{true}, Workers: []string{"w1"}},
			{Kind: OpPartial, Version: 1, Tasks: []int{0}, Answers: []bool{true}, Batch: []int{0, 1}},
			{Kind: OpDone, Version: 3},
			{Kind: "select", Version: 2},
		} {
			if err := s.Append(rec.ID, op); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("append %+v = %v, want ErrCorrupt", op, err)
			}
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ops) != 2 {
			t.Fatalf("refused appends changed the record: %+v", got.Ops)
		}
		// The in-order op still lands.
		if err := s.Append(rec.ID, Op{Kind: OpMerge, Version: 2, Tasks: []int{0}, Answers: []bool{true}}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformancePutReplacesAndCompacts(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-replace")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(rec.ID, Op{Kind: OpMerge, Version: 2, Tasks: []int{1}, Answers: []bool{true}}); err != nil {
			t.Fatal(err)
		}
		// Put with the folded state is compaction: the log is absorbed.
		folded, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		folded.LastAccess = time.Unix(4000, 0).UTC()
		if err := s.Put(folded); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, folded) {
			t.Fatalf("compacting Put changed state:\n got %+v\nwant %+v", got, folded)
		}
		// Appends keep extending from the compacted version.
		if err := s.Append(rec.ID, Op{Kind: OpMerge, Version: 3, Tasks: []int{0}, Answers: []bool{false}}); err != nil {
			t.Fatal(err)
		}
		got, err = s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ops) != 4 {
			t.Fatalf("append after compaction: %d ops", len(got.Ops))
		}
	})
}

func TestConformanceDeleteAndList(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		ids := []string{"sess-a", "sess-b", "sess-c"}
		for _, id := range ids {
			if err := s.Put(testRecord(id)); err != nil {
				t.Fatal(err)
			}
		}
		listed, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(listed) != len(ids) {
			t.Fatalf("List = %v, want %v", listed, ids)
		}
		ok, err := s.Delete("sess-b")
		if err != nil || !ok {
			t.Fatalf("Delete = %v, %v", ok, err)
		}
		ok, err = s.Delete("sess-b")
		if err != nil || ok {
			t.Fatalf("double Delete = %v, %v", ok, err)
		}
		if _, err := s.Get("sess-b"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("Get after delete = %v, want ErrNotExist", err)
		}
		listed, err = s.List()
		if err != nil || len(listed) != 2 {
			t.Fatalf("List after delete = %v, %v", listed, err)
		}
	})
}

func TestConformanceMissingAndInvalidIDs(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		if _, err := s.Get("sess-none"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("Get missing = %v, want ErrNotExist", err)
		}
		err := s.Append("sess-none", Op{Kind: OpMerge, Version: 0, Tasks: []int{0}, Answers: []bool{true}})
		if !errors.Is(err, ErrNotExist) {
			t.Fatalf("Append missing = %v, want ErrNotExist", err)
		}
		for _, bad := range []string{"", "../escape", "a/b", "dot.dot", "white space"} {
			if _, err := s.Get(bad); !errors.Is(err, ErrBadID) {
				t.Fatalf("Get(%q) = %v, want ErrBadID", bad, err)
			}
			if err := s.Put(&Record{ID: bad}); !errors.Is(err, ErrBadID) {
				t.Fatalf("Put(%q) = %v, want ErrBadID", bad, err)
			}
		}
	})
}

// TestConformanceListOrderingAndIsolation pins the List contract both
// implementations must share: IDs come back sorted lexicographically (so
// boot scans and operator tooling compare across stores and nodes), each
// exactly once, and the returned slice is the caller's — mutating it must
// not corrupt later listings.
func TestConformanceListOrderingAndIsolation(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		// Insert deliberately out of order.
		for _, id := range []string{"sess-m", "sess-a", "sess-z", "sess-k"} {
			if err := s.Put(testRecord(id)); err != nil {
				t.Fatal(err)
			}
		}
		want := []string{"sess-a", "sess-k", "sess-m", "sess-z"}
		got, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("List = %v, want sorted %v", got, want)
		}
		// The slice is a private copy: scribbling on it leaves the store's
		// next answer untouched.
		got[0] = "sess-corrupted"
		again, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("List after caller mutation = %v, want %v", again, want)
		}
		// Ordering holds across inserts and deletes, not just one snapshot.
		if err := s.Put(testRecord("sess-c")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Delete("sess-m"); err != nil {
			t.Fatal(err)
		}
		got, err = s.List()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []string{"sess-a", "sess-c", "sess-k", "sess-z"}) {
			t.Fatalf("List after churn = %v", got)
		}
	})
}

// TestConformanceConcurrentGetAfterDelete races readers against a deleter:
// every Get must return either the complete record or ErrNotExist — never
// an error of another class, never a partial record. Run with -race; this
// is the read-side half of the contract the service relies on when a
// Delete lands while another node's lazy load is mid-read.
func TestConformanceConcurrentGetAfterDelete(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		const readers = 4
		rec := testRecord("sess-racy")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		errs := make(chan error, readers+1)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					got, err := s.Get(rec.ID)
					if errors.Is(err, ErrNotExist) {
						return // the delete won the race; done
					}
					if err != nil {
						errs <- fmt.Errorf("reader: %w", err)
						return
					}
					if len(got.Ops) != len(rec.Ops) || got.Prior.N != rec.Prior.N {
						errs <- fmt.Errorf("reader saw a partial record: %+v", got)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := s.Delete(rec.ID); err != nil {
				errs <- fmt.Errorf("deleter: %w", err)
			}
		}()
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if _, err := s.Get(rec.ID); !errors.Is(err, ErrNotExist) {
			t.Fatalf("Get after settled delete = %v, want ErrNotExist", err)
		}
	})
}

// TestConformanceConcurrentSessions hammers the store from many goroutines,
// one session each (per-session ordering is the caller's contract), and
// verifies every record converges to its full op history. Run with -race.
func TestConformanceConcurrentSessions(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		const sessions, opsEach = 8, 20
		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for g := 0; g < sessions; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				id := fmt.Sprintf("sess-conc-%d", g)
				rec := testRecord(id)
				rec.Ops = nil
				if err := s.Put(rec); err != nil {
					errs <- err
					return
				}
				for v := 0; v < opsEach; v++ {
					op := Op{Kind: OpMerge, Version: v, Tasks: []int{v % 3}, Answers: []bool{v%2 == 0}}
					if err := s.Append(id, op); err != nil {
						errs <- err
						return
					}
					if v%5 == 4 { // interleave reads with the writes
						if _, err := s.Get(id); err != nil {
							errs <- err
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for g := 0; g < sessions; g++ {
			got, err := s.Get(fmt.Sprintf("sess-conc-%d", g))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Ops) != opsEach {
				t.Fatalf("session %d has %d ops, want %d", g, len(got.Ops), opsEach)
			}
			for v, op := range got.Ops {
				if op.Version != v {
					t.Fatalf("session %d op %d has version %d", g, v, op.Version)
				}
			}
		}
	})
}
