package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crowdfusion/internal/store"
)

// meter collects one measurement window's client-observed samples and the
// store-layer timings, all in milliseconds. The window starts at reset, so
// warm-up traffic is never measured.
type meter struct {
	selects, answers, rounds samples
	sessions, creates        samples // refinement sessions, create → final GET; creates
	adopts                   samples // a session's first GET after a restart
	late                     samples // how late the open-loop generator issued arrivals

	storePut, storeAppend, storeGet samples

	attempted, failed       atomic.Int64 // requests (and dropped arrivals)
	roundsDone, submissions atomic.Int64 // committed rounds; answer requests
	backlog                 atomic.Int64 // open-loop arrivals still unfinished when the schedule ended

	mu         sync.Mutex
	firstFail  error   // the first failed request, for the log
	violations []error // the first maxViolations correctness failures
	violated   int     // all correctness failures
}

// maxViolations bounds the correctness failures kept for the report; one
// broken code path can fail every session.
const maxViolations = 5

func (m *meter) all() []*samples {
	return []*samples{&m.selects, &m.answers, &m.rounds, &m.sessions, &m.creates,
		&m.adopts, &m.late, &m.storePut, &m.storeAppend, &m.storeGet}
}

func (m *meter) reset() {
	for _, s := range m.all() {
		s.reset()
	}
	for _, c := range []*atomic.Int64{&m.attempted, &m.failed, &m.roundsDone, &m.submissions, &m.backlog} {
		c.Store(0)
	}
	m.mu.Lock()
	m.firstFail = nil
	m.mu.Unlock()
}

// mark ends the current slice of every sample set.
func (m *meter) mark() {
	for _, s := range m.all() {
		s.mark()
	}
}

// call issues one request, counting it and recording its latency into s
// when it succeeds. Failures — transport errors, non-2xx responses, 503
// refusals alike, since retries are off — are counted, never retried.
func (m *meter) call(s *samples, f func() error) (time.Duration, error) {
	m.attempted.Add(1)
	start := time.Now()
	err := f()
	d := time.Since(start)
	if err != nil {
		m.failed.Add(1)
		m.mu.Lock()
		if m.firstFail == nil {
			m.firstFail = err
		}
		m.mu.Unlock()
		return d, err
	}
	if s != nil {
		s.add(d)
	}
	return d, nil
}

// violate records an output that fails the correctness gate and returns it.
func (m *meter) violate(err error) error {
	m.mu.Lock()
	m.violated++
	if len(m.violations) < maxViolations {
		m.violations = append(m.violations, err)
	}
	m.mu.Unlock()
	return err
}

// violation reports the recorded correctness failures, or nil.
func (m *meter) violation() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.violated == 0 {
		return nil
	}
	return fmt.Errorf("%d outputs failed the correctness gate, first: %w", m.violated, errors.Join(m.violations...))
}

// failure is the first failed request, or nil.
func (m *meter) failure() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.firstFail
}

// timedStore is the session store the benchmark hands the server: it times
// the store layer's request-path calls from outside, and passes the rest
// (leases, listing, close) straight through. It stops recording once its
// stack begins to shut down, so a shutdown flush is not measured.
type timedStore struct {
	store.SessionStore
	m *atomic.Pointer[meter]
}

func (s timedStore) Put(rec *store.Record) error {
	start := time.Now()
	err := s.SessionStore.Put(rec)
	if m := s.m.Load(); m != nil {
		m.storePut.add(time.Since(start))
	}
	return err
}

func (s timedStore) Append(id string, op store.Op) error {
	start := time.Now()
	err := s.SessionStore.Append(id, op)
	if m := s.m.Load(); m != nil {
		m.storeAppend.add(time.Since(start))
	}
	return err
}

func (s timedStore) Get(id string) (*store.Record, error) {
	start := time.Now()
	rec, err := s.SessionStore.Get(id)
	if m := s.m.Load(); m != nil {
		m.storeGet.add(time.Since(start))
	}
	return rec, err
}
