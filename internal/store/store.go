// Package store persists refinement sessions for the crowdfusiond service.
//
// The refinement loop is stateful by construction: every crowd answer
// conditions the joint posterior, so losing a session mid-refinement throws
// away paid crowd budget. This package makes sessions durable behind one
// small interface, SessionStore, with two implementations:
//
//   - Memory: the in-process store — fast, conformant, gone on restart;
//   - File: a pure-stdlib durable store — one snapshot file plus one
//     append-only op log per session, fsynced before an op is
//     acknowledged, with automatic log compaction back into the snapshot.
//
// A session is persisted as its Record: the creation parameters (the prior
// in its raw wire shape, selector, pc, k, budget, seed) plus its journal,
// the ops the session applied in the order it applied them. The service
// layer reconstructs the live session by replaying the journal through the
// same transition function that produced the original state, which is
// what makes recovery bit-identical: the posterior after a restart is not
// deserialized, it is recomputed by exactly the arithmetic that built it
// the first time.
//
// The store does not know what makes an op valid for a session — which
// tasks a partial may judge, who may observe — only what keeps the
// journal itself well-formed: framing, the fencing epoch of the writer,
// and one ordering rule (an op's Version is the number of merges before
// it).
package store

import (
	"errors"
	"fmt"
	"time"
)

// Store errors.
var (
	// ErrNotExist is returned by Get and Append for an ID with no record.
	ErrNotExist = errors.New("store: session record does not exist")
	// ErrBadID is returned for session IDs unsafe to use as file names.
	ErrBadID = errors.New("store: invalid session id")
	// ErrCorrupt is returned when a snapshot cannot be decoded or an op
	// sequence has a version gap that replay cannot bridge — the history
	// itself diverged or is unreadable. A corrupt log *tail* is not an
	// error — Load recovers to the last good record. Contrast ErrFenced
	// (lease.go): there the history is intact but the writer has lost the
	// session's lease and may no longer extend it.
	ErrCorrupt = errors.New("store: corrupt session record")
)

// Op kinds. The journal records state transitions, not reads.
const (
	// OpMerge is one applied answer set: the session's posterior at
	// Version was conditioned on (Tasks, Answers). It is the only kind that
	// advances the version.
	OpMerge = "merge"
	// OpDone latches session completion at Version: a select proved no
	// remaining task nets positive utility. It carries no tasks.
	OpDone = "done"
	// OpPartial journals single crowd judgments for the batch selected at
	// Version, before the batch is complete. Batch carries the full
	// selected batch so recovery re-pins the exact selection the judgments
	// answer; the OpMerge that eventually commits the batch supersedes
	// them.
	OpPartial = "partial"
	// OpObserve journals worker-attributed judgments — the observations an
	// online worker model (EM / Dawid–Skene) is estimated from. Tasks,
	// Answers and Workers are parallel (Sources optional); Version is the
	// session version the observations arrived at.
	OpObserve = "observe"
)

// Op is one journaled state transition. Every kind obeys one ordering
// rule: an op's Version is the number of merges journaled before it, so a
// journal's versions read 0, 0, 1, 1, 1, 2, … with each merge closing its
// version.
type Op struct {
	Kind    string `json:"op"`
	Version int    `json:"version"`
	Tasks   []int  `json:"tasks,omitempty"`
	Answers []bool `json:"answers,omitempty"`
	// Batch is the full selected batch a partial op's judgments belong to,
	// in selection order. Only OpPartial carries it.
	Batch []int `json:"batch,omitempty"`
	// Workers attributes each judgment of an OpObserve to its worker,
	// parallel to Tasks/Answers. Sources optionally names each judgment's
	// originating platform (parallel when present, or absent entirely).
	Workers []string `json:"workers,omitempty"`
	Sources []string `json:"sources,omitempty"`
	// Sens and Spec are the channel each judgment of an OpMerge or
	// OpPartial on an em or dawid-skene session was conditioned on —
	// P(answer true | fact true) and P(answer false | fact false) —
	// parallel to Tasks. Replay conditions on them instead of recomputing
	// the worker-model refits behind them. Fixed sessions, and journals
	// written before channels were recorded, carry none.
	Sens []float64 `json:"sens,omitempty"`
	Spec []float64 `json:"spec,omitempty"`
	// Epoch is the fencing epoch of the lease this op was written under,
	// 0 when the session is not leased. Append refuses ops whose epoch is
	// not the lease's current epoch with ErrFenced (see lease.go).
	Epoch uint64 `json:"epoch,omitempty"`
	// Time advances the record's LastAccess on load; it never affects
	// replay arithmetic.
	Time time.Time `json:"time,omitzero"`
}

// Prior is the session's initial distribution exactly as the client sent
// it: either per-fact marginals or an explicit sparse joint in the wire
// shape (n, worlds, probs). The raw form is stored — not the normalized
// posterior — so rebuilding it passes through the same constructor with the
// same inputs and yields the same bits.
type Prior struct {
	Marginals []float64 `json:"marginals,omitempty"`
	N         int       `json:"n,omitempty"`
	Worlds    []uint64  `json:"worlds,omitempty"`
	Probs     []float64 `json:"probs,omitempty"`
}

// Record is the durable form of one session: creation parameters plus its
// journal.
type Record struct {
	ID       string  `json:"id"`
	Selector string  `json:"selector"`
	Pc       float64 `json:"pc"`
	K        int     `json:"k"`
	Budget   int     `json:"budget"`
	Seed     int64   `json:"seed"`
	Prior    Prior   `json:"prior"`

	Created time.Time `json:"created"`
	// LastAccess is the freshness of the record on disk (advanced by op
	// times on load). It is operator-facing: the service restarts a
	// recovered session's TTL clock at load time rather than resuming
	// from this value.
	LastAccess time.Time `json:"last_access"`

	// Ops is the session's journal: every op it applied, in the order it
	// applied them, less the partial and done ops a merge at the same
	// version superseded (see Extend).
	Ops []Op `json:"ops,omitempty"`

	// LeaseEpoch is the fencing epoch of the lease this snapshot was
	// written under, 0 when the session is not leased. Put refuses
	// snapshots whose epoch is not the lease's current epoch with
	// ErrFenced, exactly as Append does for ops.
	LeaseEpoch uint64 `json:"lease_epoch,omitempty"`

	// WorkerModel names the session's worker-accuracy model ("fixed" when
	// empty): a creation parameter like Selector, stored so recovery refits
	// the same estimator.
	WorkerModel string `json:"worker_model,omitempty"`
}

// SessionStore persists session records. Implementations must be safe for
// concurrent use across sessions; per-session write ordering (op versions
// arriving in sequence) is the caller's responsibility — the service layer
// already serializes each session behind its mutex.
type SessionStore interface {
	// Durable reports whether records survive a process restart. The
	// session manager uses it to pick TTL-eviction semantics: durable
	// stores flush-and-unload (the session reloads lazily on next touch),
	// volatile stores drop (the session is expired for good).
	Durable() bool
	// Put writes a full snapshot of the record, replacing any previous
	// snapshot and discarding the session's op log — Put is also the
	// compaction primitive. The record is copied; the caller keeps
	// ownership.
	Put(rec *Record) error
	// Append durably logs one op for an existing record. For durable
	// stores the op is synced to stable storage before Append returns:
	// once a merge is acknowledged it survives SIGKILL. Ops must extend
	// the record in strict version order — a stale or gapped version is
	// rejected with ErrCorrupt (retries are the caller's to deduplicate;
	// a stale append signals a divergent second writer).
	Append(id string, op Op) error
	// Get returns the record with all logged ops folded in, or
	// ErrNotExist. The result is a private copy.
	Get(id string) (*Record, error)
	// Delete removes the record and its log, reporting whether it existed.
	Delete(id string) (bool, error)
	// List returns the IDs of every stored record, sorted
	// lexicographically, in a slice the caller owns. Deterministic order
	// makes boot-time ownership scans and multi-node operator tooling
	// comparable across stores and across nodes.
	List() ([]string, error)
	// Close releases store resources. The store is unusable afterwards.
	Close() error

	// AcquireLease takes (or refreshes) the session's write lease for
	// owner, valid for ttl from now. It grants when the session is
	// unleased, the lease is expired or released, or owner already holds
	// it (same holder, same epoch); a change of holder mints a strictly
	// higher epoch. A different holder's unexpired lease blocks with
	// ErrLeaseHeld (a *LeaseHeldError carrying the blocker). Leases may be
	// acquired before the record exists — Create acquires first so the
	// initial Put is already fenced.
	AcquireLease(id, owner string, ttl time.Duration, now time.Time) (Lease, error)
	// StealLease takes the lease unconditionally at a strictly higher
	// epoch, deposing an unexpired holder. Callers should have independent
	// evidence the holder is gone (the cluster ring's liveness view); the
	// epoch keeps even an unjustified steal safe — the deposed holder's
	// writes fence rather than fork.
	StealLease(id, owner string, ttl time.Duration, now time.Time) (Lease, error)
	// RenewLease extends the holder's lease by ttl from now. The renewal
	// is fenced like a write: a stale epoch or a changed holder returns
	// ErrFenced, which is how a deposed owner discovers it lost the
	// session.
	RenewLease(id, owner string, epoch uint64, ttl time.Duration, now time.Time) (Lease, error)
	// ReleaseLease clears the holder, keeping the epoch as a permanent
	// fence: writes from the released incarnation still bounce, and the
	// next acquisition mints a higher epoch. Releasing a never-leased
	// session is a no-op; releasing after being superseded returns
	// ErrFenced (callers typically just log it).
	ReleaseLease(id, owner string, epoch uint64) error
	// GetLease returns the session's current lease, or nil when the
	// session has never been leased.
	GetLease(id string) (*Lease, error)
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	c := *r
	c.Prior.Marginals = append([]float64(nil), r.Prior.Marginals...)
	c.Prior.Worlds = append([]uint64(nil), r.Prior.Worlds...)
	c.Prior.Probs = append([]float64(nil), r.Prior.Probs...)
	c.Ops = make([]Op, len(r.Ops))
	for i, op := range r.Ops {
		c.Ops[i] = op.clone()
	}
	return &c
}

// clone deep-copies one op.
func (o Op) clone() Op {
	c := o
	c.Tasks = append([]int(nil), o.Tasks...)
	c.Answers = append([]bool(nil), o.Answers...)
	c.Batch = append([]int(nil), o.Batch...)
	c.Workers = append([]string(nil), o.Workers...)
	c.Sources = append([]string(nil), o.Sources...)
	c.Sens = append([]float64(nil), o.Sens...)
	c.Spec = append([]float64(nil), o.Spec...)
	return c
}

// follows checks the ordering rule for an op journaled at version v (the
// number of merges before it): a known kind whose Version is v. It
// returns the version after the op.
func follows(v int, op Op) (int, error) {
	switch op.Kind {
	case OpMerge, OpDone, OpPartial, OpObserve:
	default:
		return v, fmt.Errorf("%w: op kind %q", ErrCorrupt, op.Kind)
	}
	if op.Version != v {
		return v, fmt.Errorf("%w: %s op at version %d does not extend version %d",
			ErrCorrupt, op.Kind, op.Version, v)
	}
	if op.Kind == OpMerge {
		v++
	}
	return v, nil
}

// version returns the number of merges in a well-ordered journal: the
// version the next op must carry.
func (r *Record) version() int {
	if len(r.Ops) == 0 {
		return 0
	}
	last := r.Ops[len(r.Ops)-1]
	if last.Kind == OpMerge {
		return last.Version + 1
	}
	return last.Version
}

// validate checks what a snapshot must satisfy before ops can be folded
// onto it: an ID and a well-ordered journal.
func (r *Record) validate() error {
	if r.ID == "" {
		return fmt.Errorf("%w: empty id", ErrCorrupt)
	}
	v := 0
	for i, op := range r.Ops {
		var err error
		if v, err = follows(v, op); err != nil {
			return fmt.Errorf("snapshot op %d: %w", i, err)
		}
	}
	return nil
}

// fold appends one op to the journal, refusing an op that does not follow
// it with ErrCorrupt. The record takes ownership of the op's slices.
func (r *Record) fold(op Op) error {
	if _, err := follows(r.version(), op); err != nil {
		return err
	}
	r.Ops = Extend(r.Ops, op)
	if op.Time.After(r.LastAccess) {
		r.LastAccess = op.Time
	}
	return nil
}

// Extend appends op to the journal ops and returns it. A merge supersedes
// the partial and done ops at its own version — it carries the whole batch
// the partials answered, and a new posterior is not done — so they are
// dropped first, and a journal holds its merges, their observations and
// the open round only. Extend reuses ops' backing array.
func Extend(ops []Op, op Op) []Op {
	if op.Kind == OpMerge {
		i := len(ops)
		for i > 0 && ops[i-1].Version == op.Version {
			i--
		}
		kept := ops[:i]
		for _, o := range ops[i:] {
			if o.Kind != OpPartial && o.Kind != OpDone {
				kept = append(kept, o)
			}
		}
		ops = kept
	}
	return append(ops, op)
}

// checkID vets an ID for use as (part of) a file name: non-empty, bounded,
// and drawn from a character set with no path separators or dots, so a
// hostile ID cannot traverse out of the data directory.
func checkID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("%w: %q", ErrBadID, id)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c == '-' || c == '_':
		default:
			return fmt.Errorf("%w: %q", ErrBadID, id)
		}
	}
	return nil
}
