package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// DefaultCompactEvery is how many logged ops a session accumulates before
// its log is folded back into the snapshot.
const DefaultCompactEvery = 64

// fileStripes is the number of per-ID mutex stripes. Operations on
// different sessions proceed in parallel; operations on one session (or two
// colliding in a stripe) serialize, which is what keeps
// snapshot-write/log-truncate sequences atomic with respect to each other.
const fileStripes = 16

// File is the durable SessionStore: per-session snapshot files plus
// append-only op logs under one data directory, pure stdlib.
//
// On-disk layout, one pair of files per session:
//
//	<dir>/<id>.json — the snapshot: the Record (the head of its journal),
//	                  a format marker, and the number of the last log line
//	                  it absorbed
//	<dir>/<id>.log  — the journal's tail: every op appended since, of any
//	                  kind, one numbered JSON line each
//
// Durability contract: Append writes the op and fsyncs the log before
// returning, so an acknowledged op survives SIGKILL. Snapshots are written
// to a temp file, fsynced, renamed into place, and the directory fsynced —
// a crash leaves either the old or the new snapshot, never a torn one.
// Compaction (folding the log into a fresh snapshot) runs automatically
// every CompactEvery appends. Line numbers make a crash between the
// snapshot rename and the log removal harmless: a load skips every line at
// or below the snapshot's number. Lines are numbered consecutively, so a
// line with no number or out of sequence — like a torn one, cut off
// mid-write — marks a corrupt tail: the session recovers to the last good
// line and the log is truncated back to it.
//
// Both files are written by json.Marshal. A load reads them with a direct
// decoder (decode.go) that parses exactly the form json.Marshal writes,
// with no reflection, and passes any other input — hand-edited, written by
// another encoder, or in the split layout — to encoding/json, so each file
// decodes as json.Unmarshal would decode it.
//
// A snapshot without the format marker was written in the older split
// layout; its first load converts it and its log into a journal and
// rewrites the session's files (legacy.go). There is no way back.
//
// Shared data dirs: a clustered deployment points several processes at
// one directory, relying on session ownership for the one-writer-per-
// session discipline instead of Lock. The primary defense is the lease
// epoch gate (lease.go): each session's lease lives in <dir>/<id>.lease
// next to its snapshot and log, every Append/Put states the epoch it was
// issued under, and the check-then-write sequence runs under a
// per-session flock (<dir>/<id>.lock), so a deposed owner's write is
// refused with ErrFenced atomically with respect to the steal that
// deposed it — the window is closed, not shrunk. Behind that gate, a
// stat fence remains as defense-in-depth and bookkeeping resync: when
// the log's on-disk size differs from this process's cache (a peer wrote
// legitimately during a handoff, or leases are disabled), the state is
// re-read from disk before the version gate runs, so even an unleased
// divergent writer is refused with ErrCorrupt rather than silently
// forking the history.
type File struct {
	dir          string
	compactEvery int

	// Logger, when set, receives background-failure records (best-effort
	// compaction retries). Nil discards them. Set it before first use.
	Logger *slog.Logger

	// lockFile pins the data dir against a second writer (see Lock).
	lockFile *os.File

	locks [fileStripes]sync.Mutex

	// state holds each session's bookkeeping. An entry's presence also
	// records that the log tail has been verified (and repaired if torn)
	// since this process opened the store. The map is guarded by stateMu;
	// the values are only read or written under the session's stripe lock.
	stateMu sync.Mutex
	state   map[string]fileSessionState
}

// fileSessionState is the in-memory bookkeeping for one session's files.
type fileSessionState struct {
	logged   int    // lines in the log (the compaction trigger)
	nextVer  int    // version the next op must carry (the ordering check)
	lastLine uint64 // number of the last line logged or absorbed
	logSize  int64  // verified log bytes on disk as of the last read/write
}

// snapshotFormat marks a snapshot written in the journal format.
const snapshotFormat = 2

// snapshot is the encoding of <id>.json.
type snapshot struct {
	Format int `json:"format"`
	// Absorbed is the number of the last log line folded into the
	// snapshot; a load skips lines at or below it.
	Absorbed uint64 `json:"absorbed"`
	*Record
}

// logLine is the encoding of one line of <id>.log.
type logLine struct {
	Line uint64 `json:"line"`
	Op
}

// NewFile opens (creating if needed) a file store rooted at dir.
// compactEvery bounds the op log length before automatic compaction;
// 0 means DefaultCompactEvery.
func NewFile(dir string, compactEvery int) (*File, error) {
	if dir == "" {
		return nil, errors.New("store: file store needs a data directory")
	}
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	return &File{
		dir:          dir,
		compactEvery: compactEvery,
		state:        make(map[string]fileSessionState),
	}, nil
}

// Durable reports true: acknowledged writes survive restart.
func (s *File) Durable() bool { return true }

// Dir returns the store's data directory.
func (s *File) Dir() string { return s.dir }

func (s *File) lockFor(id string) *sync.Mutex {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return &s.locks[h&(fileStripes-1)]
}

func (s *File) snapPath(id string) string  { return filepath.Join(s.dir, id+".json") }
func (s *File) logPath(id string) string   { return filepath.Join(s.dir, id+".log") }
func (s *File) leasePath(id string) string { return filepath.Join(s.dir, id+".lease") }
func (s *File) fencePath(id string) string { return filepath.Join(s.dir, id+".lock") }

// Put atomically replaces the session's snapshot and discards its log.
func (s *File) Put(rec *Record) error {
	if err := checkID(rec.ID); err != nil {
		return err
	}
	if err := rec.validate(); err != nil {
		return err
	}
	mu := s.lockFor(rec.ID)
	mu.Lock()
	defer mu.Unlock()
	unlock, err := s.fenceLock(rec.ID)
	if err != nil {
		return err
	}
	defer unlock()
	cur, err := s.readLease(rec.ID)
	if err != nil {
		return err
	}
	if err := checkFence(rec.ID, rec.LeaseEpoch, cur); err != nil {
		return err
	}
	// The snapshot absorbs the log it replaces, so it takes over the log's
	// last line number: a crash before the log is removed leaves only
	// lines a load skips, and the next append continues the numbering.
	last, err := s.lastLineLocked(rec.ID)
	if err != nil {
		return err
	}
	return s.putLocked(rec, last)
}

// lastLineLocked returns the number of the last line in the session's log
// (0 with none): from the bookkeeping when it is current, from disk
// otherwise. The caller holds the session's stripe lock.
func (s *File) lastLineLocked(id string) (uint64, error) {
	if st, ok := s.getState(id); ok && s.logSizeOnDisk(id) == st.logSize {
		return st.lastLine, nil
	}
	logData, err := os.ReadFile(s.logPath(id))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("store: reading log %s: %w", id, err)
	}
	var last uint64
	eachLine(logData, func(line []byte) bool {
		l, err := decodeLine(line)
		if err != nil {
			return false
		}
		last = max(last, l.Line)
		return true
	})
	return last, nil
}

// eachLine calls f on the complete lines of a log in order until f
// returns false, and returns the byte offset just past the last line f
// accepted — always a line boundary. A final line with no newline is torn:
// the crash arrived mid-append.
func eachLine(logData []byte, f func(line []byte) bool) (good int) {
	for off := 0; off < len(logData); {
		nl := bytes.IndexByte(logData[off:], '\n')
		if nl < 0 || !f(logData[off:off+nl]) {
			break
		}
		off += nl + 1
		good = off
	}
	return good
}

// putLocked writes the snapshot (temp + fsync + rename + dir fsync)
// stamped with the last log line it absorbs, then removes the log. The
// caller holds the session's stripe lock.
func (s *File) putLocked(rec *Record, absorbed uint64) error {
	data, err := json.Marshal(snapshot{Format: snapshotFormat, Absorbed: absorbed, Record: rec})
	if err != nil {
		return fmt.Errorf("store: encoding snapshot %s: %w", rec.ID, err)
	}
	tmp := s.snapPath(rec.ID) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: writing snapshot %s: %w", rec.ID, err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot %s: %w", rec.ID, err)
	}
	if err := os.Rename(tmp, s.snapPath(rec.ID)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing snapshot %s: %w", rec.ID, err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	// The log's lines are absorbed now; a crash before this remove leaves
	// lines numbered at or below the snapshot's stamp, which a load skips.
	if err := os.Remove(s.logPath(rec.ID)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: truncating log %s: %w", rec.ID, err)
	}
	s.setState(rec.ID, fileSessionState{nextVer: rec.version(), lastLine: absorbed})
	return nil
}

// logSizeOnDisk returns the session log's current byte size (0 when the
// log does not exist) — the cheap fence Append uses to notice another
// process's writes in a shared data dir.
func (s *File) logSizeOnDisk(id string) int64 {
	fi, err := os.Stat(s.logPath(id))
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (s *File) setState(id string, st fileSessionState) {
	s.stateMu.Lock()
	s.state[id] = st
	s.stateMu.Unlock()
}

func (s *File) getState(id string) (fileSessionState, bool) {
	s.stateMu.Lock()
	st, ok := s.state[id]
	s.stateMu.Unlock()
	return st, ok
}

// Append durably logs one op: write, fsync, then (every compactEvery ops)
// fold the log back into the snapshot.
func (s *File) Append(id string, op Op) error {
	if err := checkID(id); err != nil {
		return err
	}
	mu := s.lockFor(id)
	mu.Lock()
	defer mu.Unlock()
	unlock, err := s.fenceLock(id)
	if err != nil {
		return err
	}
	defer unlock()
	cur, err := s.readLease(id)
	if err != nil {
		return err
	}
	if err := checkFence(id, op.Epoch, cur); err != nil {
		return err
	}

	st, seen := s.getState(id)
	if !seen || s.logSizeOnDisk(id) != st.logSize {
		// First touch since the store opened: verify the record exists and
		// repair any torn log tail so this append extends valid state. Or
		// the log changed under us: another PROCESS sharing the data dir
		// wrote since our bookkeeping was current — a peer that adopted
		// this session during a handoff and has since handed it back.
		// Resync from disk so the ordering check below judges this op
		// against the real log, not a stale cache. With leases enabled the
		// epoch gate above has already refused any *divergent* writer;
		// this stat fence remains as defense-in-depth for unleased
		// deployments (where a divergent writer is refused with
		// ErrCorrupt) and as the bookkeeping refresh for legitimate
		// hand-backs.
		if _, st, err = s.getLocked(id); err != nil {
			return err
		}
	}

	// Appends must follow the journal in strict version order. A gap could
	// never replay; an op BEHIND the current version is just as dangerous:
	// retries are deduplicated in memory before they reach the store, so a
	// stale append means a second, divergent writer — silently dropping it
	// would let its in-memory state part ways with disk.
	next, err := follows(st.nextVer, op)
	if err != nil {
		return fmt.Errorf("append to %s: %w", id, err)
	}
	line, err := json.Marshal(logLine{Line: st.lastLine + 1, Op: op})
	if err != nil {
		return fmt.Errorf("store: encoding op for %s: %w", id, err)
	}
	line = append(line, '\n')
	f, err := os.OpenFile(s.logPath(id), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening log %s: %w", id, err)
	}
	if _, err := f.Write(line); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: appending op for %s: %w", id, err)
	}

	st.logged++
	st.nextVer = next
	st.lastLine++
	st.logSize += int64(len(line))
	s.setState(id, st)
	if st.logged >= s.compactEvery {
		// Best-effort: the op above is already durable, so a compaction
		// hiccup must NOT fail the append — the caller would retry an op
		// that is on disk and trip the version-order check. The logged
		// counter stays high, so the next append retries the compaction;
		// a persistent disk problem surfaces through that append's own
		// write instead.
		if err := s.compactLocked(id); err != nil && s.Logger != nil {
			s.Logger.Warn("store: compaction failed; will retry", "session", id, "err", err)
		}
	}
	return nil
}

// compactLocked folds the session's log back into its snapshot. The
// caller holds the session's stripe lock.
func (s *File) compactLocked(id string) error {
	rec, st, err := s.getLocked(id)
	if err != nil {
		return err
	}
	return s.putLocked(rec, st.lastLine)
}

// Get loads the snapshot and folds in the logged ops. It takes the
// per-session fence lock: the read path repairs torn log tails by
// truncating, and that repair must not race a peer's in-flight append.
func (s *File) Get(id string) (*Record, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	mu := s.lockFor(id)
	mu.Lock()
	defer mu.Unlock()
	unlock, err := s.fenceLock(id)
	if err != nil {
		return nil, err
	}
	defer unlock()
	rec, _, err := s.getLocked(id)
	return rec, err
}

// getLocked reads snapshot + log, migrating a snapshot in the split
// layout, and refreshes the session's bookkeeping. A corrupt or torn log
// tail is truncated away so the on-disk state matches the recovered
// record. The caller holds the session's stripe lock.
func (s *File) getLocked(id string) (*Record, fileSessionState, error) {
	var st fileSessionState
	data, err := os.ReadFile(s.snapPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, st, fmt.Errorf("%w: %s", ErrNotExist, id)
	}
	if err != nil {
		return nil, st, fmt.Errorf("store: reading snapshot %s: %w", id, err)
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, st, fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, id, err)
	}
	switch snap.Format {
	case snapshotFormat:
	case 0:
		return s.migrateLocked(id, data)
	default:
		return nil, st, fmt.Errorf("%w: snapshot %s has format %d", ErrCorrupt, id, snap.Format)
	}
	rec := snap.Record
	if rec.ID != id {
		return nil, st, fmt.Errorf("%w: snapshot %s names session %q", ErrCorrupt, id, rec.ID)
	}
	if err := rec.validate(); err != nil {
		return nil, st, fmt.Errorf("snapshot %s: %w", id, err)
	}

	logData, err := os.ReadFile(s.logPath(id))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, st, fmt.Errorf("store: reading log %s: %w", id, err)
	}
	st.lastLine = snap.Absorbed
	var prev uint64 // the previous line's number, 0 before the first
	good := eachLine(logData, func(line []byte) bool {
		l, err := decodeLine(line)
		if err != nil {
			return false
		}
		// The first line may predate the snapshot (a compaction crashed
		// before removing the log); after it, numbers are consecutive.
		if l.Line == 0 || (prev == 0 && l.Line > snap.Absorbed+1) || (prev != 0 && l.Line != prev+1) {
			return false
		}
		if l.Line > snap.Absorbed && rec.fold(l.Op) != nil {
			return false
		}
		prev = l.Line
		st.lastLine = max(st.lastLine, l.Line)
		st.logged++
		return true
	})
	if good < len(logData) {
		// Truncate the bad tail so subsequent appends extend valid state
		// instead of hiding behind garbage.
		if err := os.Truncate(s.logPath(id), int64(good)); err != nil {
			return nil, st, fmt.Errorf("store: repairing log %s: %w", id, err)
		}
	}
	st.nextVer = rec.version()
	st.logSize = int64(good)
	s.setState(id, st)
	return rec, st, nil
}

// Delete removes the session's snapshot and log.
func (s *File) Delete(id string) (bool, error) {
	if err := checkID(id); err != nil {
		return false, err
	}
	mu := s.lockFor(id)
	mu.Lock()
	defer mu.Unlock()
	unlock, err := s.fenceLock(id)
	if err != nil {
		return false, err
	}
	defer unlock()
	existed := true
	if err := os.Remove(s.snapPath(id)); err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return false, fmt.Errorf("store: deleting %s: %w", id, err)
		}
		existed = false
	}
	if err := os.Remove(s.logPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return existed, fmt.Errorf("store: deleting log %s: %w", id, err)
	}
	// The lease dies with the session: a deleted ID's epoch history is
	// meaningless once the record is gone (a recreated session starts a
	// fresh lease line). The fence lock file goes too, best-effort.
	if err := os.Remove(s.leasePath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return existed, fmt.Errorf("store: deleting lease %s: %w", id, err)
	}
	os.Remove(s.fencePath(id))
	s.stateMu.Lock()
	delete(s.state, id)
	s.stateMu.Unlock()
	if existed {
		return true, s.syncDir()
	}
	return false, nil
}

// List scans the data directory for snapshot files. os.ReadDir returns
// entries sorted by name, so the IDs come back in lexicographic order as
// the interface requires.
func (s *File) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", s.dir, err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if checkID(id) == nil {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// Close releases the data-dir lock (when Lock was called); per-session
// file descriptors are never held between calls.
func (s *File) Close() error { return s.unlock() }

// AcquireLease takes or refreshes the session's write lease. The lease
// record lives in <dir>/<id>.lease next to the session's snapshot and log,
// written atomically and fsynced, and the read-modify-write runs under the
// per-session fence lock so concurrent acquisitions from different
// processes serialize into a strict epoch order.
func (s *File) AcquireLease(id, owner string, ttl time.Duration, now time.Time) (Lease, error) {
	return s.lease(id, func(cur *Lease) (Lease, error) {
		return grantLease(cur, id, owner, ttl, now, false)
	})
}

// StealLease takes the lease unconditionally at a higher epoch.
func (s *File) StealLease(id, owner string, ttl time.Duration, now time.Time) (Lease, error) {
	return s.lease(id, func(cur *Lease) (Lease, error) {
		return grantLease(cur, id, owner, ttl, now, true)
	})
}

// RenewLease extends the holder's lease, fencing stale holders.
func (s *File) RenewLease(id, owner string, epoch uint64, ttl time.Duration, now time.Time) (Lease, error) {
	return s.lease(id, func(cur *Lease) (Lease, error) {
		return renewLease(cur, id, owner, epoch, ttl, now)
	})
}

// ReleaseLease clears the holder, keeping the epoch fence on disk.
func (s *File) ReleaseLease(id, owner string, epoch uint64) error {
	_, err := s.lease(id, func(cur *Lease) (Lease, error) {
		next, err := releaseLease(cur, id, owner, epoch)
		if err != nil {
			return Lease{}, err
		}
		if next == nil {
			return Lease{}, errLeaseUnchanged
		}
		return *next, nil
	})
	if errors.Is(err, errLeaseUnchanged) {
		return nil
	}
	return err
}

// GetLease returns the session's current lease, or nil when never leased.
func (s *File) GetLease(id string) (*Lease, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	mu := s.lockFor(id)
	mu.Lock()
	defer mu.Unlock()
	return s.readLease(id)
}

// errLeaseUnchanged is an internal sentinel: the transition was a no-op and
// nothing should be written.
var errLeaseUnchanged = errors.New("store: lease unchanged")

// lease runs one lease transition under the stripe lock and the
// cross-process fence lock, persisting the result durably.
func (s *File) lease(id string, next func(cur *Lease) (Lease, error)) (Lease, error) {
	if err := checkID(id); err != nil {
		return Lease{}, err
	}
	mu := s.lockFor(id)
	mu.Lock()
	defer mu.Unlock()
	unlock, err := s.fenceLock(id)
	if err != nil {
		return Lease{}, err
	}
	defer unlock()
	cur, err := s.readLease(id)
	if err != nil {
		return Lease{}, err
	}
	granted, err := next(cur)
	if err != nil {
		return Lease{}, err
	}
	if err := s.writeLease(granted); err != nil {
		return Lease{}, err
	}
	return granted, nil
}

// readLease loads the session's lease record; nil when never leased.
func (s *File) readLease(id string) (*Lease, error) {
	data, err := os.ReadFile(s.leasePath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading lease %s: %w", id, err)
	}
	l := &Lease{}
	if err := json.Unmarshal(data, l); err != nil {
		return nil, fmt.Errorf("%w: lease %s: %v", ErrCorrupt, id, err)
	}
	return l, nil
}

// writeLease durably publishes a lease record: temp + fsync + rename +
// dir fsync, the same discipline as snapshots, so a crash leaves either
// the old or the new lease, never a torn one.
func (s *File) writeLease(l Lease) error {
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("store: encoding lease %s: %w", l.ID, err)
	}
	tmp := s.leasePath(l.ID) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: writing lease %s: %w", l.ID, err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing lease %s: %w", l.ID, err)
	}
	if err := os.Rename(tmp, s.leasePath(l.ID)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing lease %s: %w", l.ID, err)
	}
	return s.syncDir()
}

// syncDir fsyncs the data directory, making renames and removals durable.
func (s *File) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: opening data dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: syncing data dir: %w", err)
	}
	return nil
}
