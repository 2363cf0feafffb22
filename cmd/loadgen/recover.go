package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"crowdfusion/client"
	"crowdfusion/internal/service"
	"crowdfusion/internal/store"
)

const (
	recoverSessions = 256
	minAdopts       = 1000 // a recover window runs at least this many adoptions
)

// recoverHistories are the journal lengths, in rounds, the sessions are
// crashed at: short, medium and long replays.
var recoverHistories = [3]int{4, 16, 64}

// recoverSpec is session i of the crashed data directory: 10-fact priors,
// k=2, a history of 4, 16 or 64 rounds, and a budget that leaves exactly
// one round to resume. Half the sessions are em, so adoption also replays
// the worker-model refits.
func recoverSpec(seed int64, i int) spec {
	h := recoverHistories[i%len(recoverHistories)]
	sh := shape{facts: 10, pc: 0.8, k: 2, budget: 2 * (h + 1), model: service.WorkerModelFixed, form: formArrays}
	if i%2 == 1 {
		sh.model, sh.form = service.WorkerModelEM, formJudgments
	}
	return newSpec(seed, i, sh)
}

// recoverWL is the read and replay side of the store and session code:
// restarting over a crashed data directory adopts every session by
// replaying its journal, then each session resumes for one round. A change
// that makes appends cheaper by making replay dearer shows here.
var recoverWL = &workload{
	name:  "recover",
	why:   "restart over a crashed data dir of 256 sessions with 4-64 round journals, adopt each on first GET, resume one round: replay and refit cost",
	setup: setupRecover,
	drive: driveRecover,
}

// recoverSession is one crashed session and what its recovery must show.
type recoverSession struct {
	sp    spec
	id    string
	pre   []byte   // the pre-crash GET, canonically encoded
	batch []int    // the batch the resumed session must select
	ans   judgment // the crowd's answers to it
	final []byte   // the first rep's post-resume GET, for sampled sessions
}

// recoverSUT is the crashed data directory, kept pristine: each rep
// recovers a fresh copy of it.
type recoverSUT struct {
	pristine string
	sessions []*recoverSession
}

func (s *recoverSUT) close() { os.RemoveAll(s.pristine) }

// setupRecover writes the sessions' histories through a stack over a file
// store, looks ahead one selection per session, records the pre-crash
// state, and crash-stops the stack: the listener closes and the service is
// never drained. The crashed directory is copied as the pristine one; only
// then is the crashed service closed, so its memory is not part of the
// measured heap and its shutdown flush lands in a discarded directory.
func setupRecover(p *pass) (sut, error) {
	dir, err := os.MkdirTemp(p.dir, "crashed-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pristine, err := os.MkdirTemp(p.dir, "pristine-")
	if err != nil {
		return nil, err
	}
	s := &recoverSUT{pristine: pristine, sessions: make([]*recoverSession, recoverSessions)}
	fs, err := store.NewFile(dir, 0)
	if err != nil {
		s.close()
		return nil, err
	}
	st, err := startStack(fs, &p.m, false)
	if err != nil {
		s.close()
		return nil, err
	}
	err = forEach(recoverSessions, func(i int) error {
		rs, err := p.writeHistory(st.cl, recoverSpec(p.seed, i))
		s.sessions[i] = rs
		return err
	})
	st.crash()
	if err == nil {
		err = copyDir(dir, pristine)
	}
	st.svc.Close()
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// writeHistory creates a session, runs its history, and selects — but
// does not answer — the round it will resume with. Selections are not
// journaled, so the recovered session must re-derive the same batch.
func (p *pass) writeHistory(cl *client.Client, sp spec) (*recoverSession, error) {
	crowd, err := sp.platformFor(p.pool)
	if err != nil {
		return nil, err
	}
	ctx, m := p.ctx, &p.m
	info, err := cl.CreateSession(ctx, sp.request())
	if err != nil {
		return nil, fmt.Errorf("session %d: create: %w", sp.index, err)
	}
	answer := func(tasks []int) (judgment, error) { return sp.ask(ctx, crowd, tasks) }
	for r := 0; r < sp.budget/sp.k-1; r++ {
		if _, merged, _, err := m.round(ctx, cl, info.ID, sp, answer); err != nil || !merged {
			return nil, fmt.Errorf("session %d: history round %d did not merge: %v", sp.index, r, err)
		}
	}
	sel, err := cl.Select(ctx, info.ID, 0)
	if err != nil {
		return nil, fmt.Errorf("session %d: look-ahead select: %w", sp.index, err)
	}
	rs := &recoverSession{sp: sp, id: info.ID, batch: sel.Tasks}
	if len(sel.Tasks) > 0 {
		if rs.ans, err = answer(sel.Tasks); err != nil {
			return nil, err
		}
	}
	pre, err := cl.GetSession(ctx, info.ID, false)
	if err != nil {
		return nil, fmt.Errorf("session %d: pre-crash GET: %w", sp.index, err)
	}
	rs.pre, err = json.Marshal(pre)
	return rs, err
}

// driveRecover runs one untimed rep, then reps until the window has run
// for d and adopted at least minAdopts sessions. Only the reps themselves
// are timed; copying the data directory and tearing the stack down are not.
// Each rep is one slice of the window.
func driveRecover(p *pass, s sut, warm, d time.Duration) error {
	rs := s.(*recoverSUT)
	if err := p.recoverRep(rs, 0); err != nil {
		return err
	}
	w, err := p.begin(nil)
	if err != nil {
		return err
	}
	p.elapsed, p.recovers = 0, nil
	// Failed adoptions do not count toward minAdopts, so the window is
	// capped at three times its length.
	for rep := 1; (p.elapsed < d || p.m.adopts.len() < minAdopts) && p.elapsed < 3*d && p.ctx.Err() == nil; rep++ {
		if err := p.recoverRep(rs, rep); err != nil {
			p.end(w, nil)
			return err
		}
		p.cut(p.elapsed)
	}
	return p.end(w, nil)
}

// recoverRep recovers a fresh copy of the crashed directory: boot a stack,
// GET every session in a seeded random order (each GET adopts it, and must
// return the pre-crash state byte for byte), then resume every session for
// one round, which must select the batch the crashed service would have.
// A round here is the session's adopting GET plus its select and answers.
func (p *pass) recoverRep(rs *recoverSUT, rep int) error {
	dir, err := os.MkdirTemp(p.dir, "rep-")
	if err != nil {
		return err
	}
	defer p.untimed(func() error { return os.RemoveAll(dir) })
	if err := p.untimed(func() error { return copyDir(rs.pristine, dir) }); err != nil {
		return err
	}
	start := time.Now()
	fs, err := store.NewFile(dir, 0)
	if err != nil {
		return err
	}
	st, err := startStack(fs, &p.m, p.traced)
	if err != nil {
		return err
	}
	defer p.untimed(func() error { st.close(); return nil })
	m, cl, ctx := &p.m, st.cl, p.ctx
	order := rand.New(rand.NewPCG(uint64(p.seed), uint64(rep))).Perm(len(rs.sessions))
	adopt := make([]time.Duration, len(rs.sessions))
	err = forEach(len(order), func(j int) error {
		i := order[j]
		var info *client.SessionInfo
		d, err := m.call(&m.adopts, func() (err error) {
			info, err = cl.GetSession(ctx, rs.sessions[i].id, false)
			return err
		})
		if err != nil {
			return nil // counted as failed
		}
		adopt[i] = d
		got, err := json.Marshal(info)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, rs.sessions[i].pre) {
			m.violate(fmt.Errorf("session %d: adopted state differs from the pre-crash state:\n got %s\nwant %s",
				rs.sessions[i].sp.index, got, rs.sessions[i].pre))
		}
		return nil
	})
	if err != nil {
		return err
	}
	recovered := time.Since(start)
	err = forEach(len(order), func(j int) error {
		i := order[j]
		if adopt[i] == 0 {
			return nil // the adopting GET failed
		}
		return p.resume(cl, rs.sessions[i], adopt[i], rep)
	})
	if err != nil {
		return err
	}
	p.elapsed += time.Since(start)
	p.recovers = append(p.recovers, recovered.Seconds())
	return p.addStack(st, nil, start)
}

// resume runs a recovered session's last round and checks where it ends.
func (p *pass) resume(cl *client.Client, s *recoverSession, adopt time.Duration, rep int) error {
	m, ctx := &p.m, p.ctx
	answer := func(tasks []int) (judgment, error) {
		if !slices.Equal(tasks, s.batch) {
			return judgment{}, m.violate(fmt.Errorf("session %d: recovered service selected %v, the crashed one %v",
				s.sp.index, tasks, s.batch))
		}
		return s.ans, nil
	}
	svc, merged, _, err := m.round(ctx, cl, s.id, s.sp, answer)
	if err != nil {
		return nil // counted as failed, or recorded as a violation
	}
	if merged {
		m.rounds.add(adopt + svc)
	}
	if s.sp.index%oracleEvery != 0 {
		return nil
	}
	var final *client.SessionInfo
	if _, err := m.call(nil, func() (err error) {
		final, err = cl.GetSession(ctx, s.id, false)
		return err
	}); err != nil {
		return nil
	}
	got, err := json.Marshal(final)
	if err != nil {
		return err
	}
	// The first rep records each sampled session's end state (and offers
	// the fixed ones to the oracle); every later rep must reproduce it.
	switch {
	case rep == 0:
		s.final = got
		p.oracle.offer(s.sp, final)
	case !bytes.Equal(got, s.final):
		m.violate(fmt.Errorf("session %d: rep %d ended in a different state than rep 0", s.sp.index, rep))
	}
	return nil
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
