package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"slices"
	"time"
)

// Migration from the split layout.
//
// Before the journal format, a snapshot split a session's op sequence
// into four streams — merge-only Ops, an observation log, a pending ledger
// and a done flag — and its log lines carried no line numbers: a load
// skipped what a crashed compaction had already folded by per-kind keys
// (version for merges, partials and done latches, Seq for observations)
// and refused a partial re-judging a ledger task. Such a snapshot has no
// format marker. Its first load folds its log with exactly those keys,
// unfolds the four streams into one journal in the order the session
// replays them, and rewrites the session's files in the journal format,
// all under the per-session fence lock the load already holds.

// legacyRecord is a snapshot in the split layout.
type legacyRecord struct {
	Record
	Done           bool                `json:"done,omitempty"`
	PendingBatch   []int               `json:"pending_batch,omitempty"`
	PendingTasks   []int               `json:"pending_tasks,omitempty"`
	PendingAnswers []bool              `json:"pending_answers,omitempty"`
	Observations   []legacyObservation `json:"observations,omitempty"`
}

// legacyObservation is one worker-attributed judgment of the split
// layout's observation log, stamped with the version it arrived at.
type legacyObservation struct {
	Task    int       `json:"task"`
	Answer  bool      `json:"answer"`
	Worker  string    `json:"worker"`
	Source  string    `json:"source,omitempty"`
	Version int       `json:"version"`
	Time    time.Time `json:"time,omitzero"`
}

// legacyOp is a log line of the split layout. Seq is an observe op's
// index of its first observation.
type legacyOp struct {
	Op
	Seq int `json:"seq,omitempty"`
}

// migrateLocked converts a snapshot in the split layout, and the log
// written against it, into a journal and rewrites the session's files in
// the journal format. The caller holds the session's stripe and fence
// locks.
func (s *File) migrateLocked(id string, data []byte) (*Record, fileSessionState, error) {
	l := &legacyRecord{}
	if err := json.Unmarshal(data, l); err != nil {
		return nil, fileSessionState{}, fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, id, err)
	}
	if l.ID != id {
		return nil, fileSessionState{}, fmt.Errorf("%w: snapshot %s names session %q", ErrCorrupt, id, l.ID)
	}
	logData, err := os.ReadFile(s.logPath(id))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fileSessionState{}, fmt.Errorf("store: reading log %s: %w", id, err)
	}
	// The log is rewritten whole, so its torn or corrupt tail needs no
	// truncation: folding just stops there.
	eachLine(logData, func(line []byte) bool {
		var op legacyOp
		return json.Unmarshal(line, &op) == nil && l.fold(op)
	})
	rec := l.journal()
	if err := rec.validate(); err != nil {
		return nil, fileSessionState{}, fmt.Errorf("snapshot %s: %w", id, err)
	}
	if err := s.putLocked(rec, 0); err != nil {
		return nil, fileSessionState{}, err
	}
	// Read back, so this load returns exactly what every later one will.
	return s.getLocked(id)
}

// fold applies one log line with the split layout's skip keys, reporting
// false where that layout's load ended the good prefix.
func (l *legacyRecord) fold(op legacyOp) bool {
	n := len(op.Tasks)
	if len(op.Answers) != n {
		return false
	}
	switch op.Kind {
	case OpObserve:
		if n == 0 || len(op.Workers) != n || (len(op.Sources) != 0 && len(op.Sources) != n) {
			return false
		}
		switch {
		case op.Seq+n <= len(l.Observations):
			// Already folded into the snapshot by a compaction.
		case op.Seq == len(l.Observations) && op.Version == len(l.Ops):
			for i, t := range op.Tasks {
				o := legacyObservation{Task: t, Answer: op.Answers[i], Worker: op.Workers[i],
					Version: op.Version, Time: op.Time}
				if len(op.Sources) != 0 {
					o.Source = op.Sources[i]
				}
				l.Observations = append(l.Observations, o)
			}
		default:
			return false
		}
	case OpMerge, OpDone, OpPartial:
		switch {
		case op.Version < len(l.Ops):
			// Already folded into the snapshot by a compaction.
		case op.Version > len(l.Ops):
			return false
		case op.Kind == OpMerge:
			if n == 0 {
				return false
			}
			l.Ops = append(l.Ops, op.Op)
			l.Done = false
			l.PendingBatch, l.PendingTasks, l.PendingAnswers = nil, nil, nil
		case op.Kind == OpDone:
			l.Done = true
		default:
			if n == 0 || len(op.Batch) == 0 {
				return false
			}
			for _, t := range op.Tasks {
				if slices.Contains(l.PendingTasks, t) {
					return false
				}
			}
			if len(l.PendingBatch) == 0 {
				l.PendingBatch = op.Batch
			}
			l.PendingTasks = append(l.PendingTasks, op.Tasks...)
			l.PendingAnswers = append(l.PendingAnswers, op.Answers...)
		}
	default:
		return false
	}
	if op.Time.After(l.LastAccess) {
		l.LastAccess = op.Time
	}
	return true
}

// journal unfolds the four streams into the order the session replays
// them: every observation journaled at version v precedes the merge that
// advanced v; the open round's observations, its ledger (one partial op)
// and the done latch follow.
func (l *legacyRecord) journal() *Record {
	rec := l.Record
	rec.Ops = make([]Op, 0, len(l.Ops)+len(l.Observations)+2)
	obs := l.Observations
	observeUpTo := func(v int) {
		for ; len(obs) > 0 && obs[0].Version <= v; obs = obs[1:] {
			o := obs[0]
			op := Op{Kind: OpObserve, Version: o.Version, Tasks: []int{o.Task},
				Answers: []bool{o.Answer}, Workers: []string{o.Worker}, Time: o.Time}
			if o.Source != "" {
				op.Sources = []string{o.Source}
			}
			rec.Ops = append(rec.Ops, op)
		}
	}
	for _, m := range l.Ops {
		observeUpTo(m.Version)
		rec.Ops = append(rec.Ops, m)
	}
	observeUpTo(math.MaxInt)
	v := len(l.Ops)
	if len(l.PendingTasks) > 0 {
		rec.Ops = append(rec.Ops, Op{Kind: OpPartial, Version: v,
			Tasks: l.PendingTasks, Answers: l.PendingAnswers, Batch: l.PendingBatch})
	}
	if l.Done {
		rec.Ops = append(rec.Ops, Op{Kind: OpDone, Version: v})
	}
	return &rec
}
