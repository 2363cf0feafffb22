package service

import (
	"testing"
	"time"

	"crowdfusion/internal/parallel"
)

// resolved is what withDefaults and newManager make of a Config.
type resolved struct {
	janitor, leaseLoop                       bool
	leaseRenew, queueTimeout, requestTimeout time.Duration
	maxConcurrent, maxSubscribers            int
	anonWorker, self                         string
}

// TestConfigResolution pins the one zero-value rule: 0 is off for TTL,
// LeaseTTL and MaxSessions, and the documented default for the rest.
func TestConfigResolution(t *testing.T) {
	defaults := resolved{
		leaseRenew:     10 * time.Millisecond,
		queueTimeout:   5 * time.Second,
		requestTimeout: 60 * time.Second,
		maxConcurrent:  parallel.Workers(0, 1<<30),
		maxSubscribers: DefaultMaxSubscribers,
		anonWorker:     DefaultAnonWorker,
		self:           "local",
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want func(r *resolved)
	}{
		{name: "zero", want: func(*resolved) {}},
		{name: "TTL on", cfg: Config{TTL: time.Hour}, want: func(r *resolved) { r.janitor = true }},
		{
			name: "LeaseRenew defaults to LeaseTTL/3",
			cfg:  Config{LeaseTTL: 30 * time.Second},
			want: func(r *resolved) { r.leaseLoop, r.leaseRenew = true, 10*time.Second },
		},
		{
			name: "LeaseRenew default floored",
			cfg:  Config{LeaseTTL: 15 * time.Millisecond},
			want: func(r *resolved) { r.leaseLoop = true },
		},
		{
			name: "LeaseRenew set",
			cfg:  Config{LeaseTTL: time.Minute, LeaseRenew: time.Second},
			want: func(r *resolved) { r.leaseLoop, r.leaseRenew = true, time.Second },
		},
		{
			name: "LeaseRenew set floored",
			cfg:  Config{LeaseTTL: time.Minute, LeaseRenew: time.Millisecond},
			want: func(r *resolved) { r.leaseLoop = true },
		},
		{
			name: "set values kept",
			cfg: Config{
				MaxConcurrent: 3, QueueTimeout: time.Second, RequestTimeout: 2 * time.Second,
				MaxSubscribers: 4, AnonWorker: "w0",
			},
			want: func(r *resolved) {
				r.maxConcurrent, r.queueTimeout, r.requestTimeout = 3, time.Second, 2*time.Second
				r.maxSubscribers, r.anonWorker = 4, "w0"
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := NewServer(tc.cfg)
			m := svc.Manager()
			got := resolved{
				janitor:        m.janitorStop != nil,
				leaseLoop:      m.leaseStop != nil,
				leaseRenew:     m.cfg.LeaseRenew,
				queueTimeout:   m.cfg.QueueTimeout,
				requestTimeout: m.cfg.RequestTimeout,
				maxConcurrent:  cap(svc.gate),
				maxSubscribers: m.events.maxSubs,
				anonWorker:     m.cfg.AnonWorker,
				self:           m.cfg.ownership.Self(),
			}
			svc.Close()
			want := defaults
			tc.want(&want)
			if got != want {
				t.Fatalf("resolved %+v\nwant     %+v", got, want)
			}
		})
	}

	t.Run("Clock reaches Manager.Now", func(t *testing.T) {
		at := time.Unix(1000, 0)
		m := newManager(Config{Clock: func() time.Time { return at }})
		defer m.Close()
		if got := m.Now(); !got.Equal(at) {
			t.Fatalf("Now = %v, want %v", got, at)
		}
	})
}
