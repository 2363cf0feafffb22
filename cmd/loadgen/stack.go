package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crowdfusion/client"
	"crowdfusion/internal/service"
	"crowdfusion/internal/store"
	"crowdfusion/internal/trace"
)

// requestTimeout fails a request that hangs instead of letting the run
// outlive its time limit.
const requestTimeout = 30 * time.Second

// recorderLimit is the traced run's span retention: far above anything a
// run records, so no trace is evicted. A full ring counts as dropped spans.
const recorderLimit = 1 << 22

// stack is one in-process crowdfusiond: the service behind a loopback TCP
// listener, and a client limited to nproc connections with retries off, so
// a 503 is a failure rather than a hidden retry.
type stack struct {
	meter  atomic.Pointer[meter] // where the store wrapper records; nil once closing
	svc    *service.Server
	hs     *http.Server
	tr     *http.Transport
	cl     *client.Client
	rec    *trace.Recorder // nil when untraced
	served chan struct{}   // closed when Serve has returned
}

// startStack boots the service over st. The store is wrapped so the meter
// times its calls; a traced stack shares one recorder between the server
// and the client so each request's spans form one trace.
func startStack(st store.SessionStore, m *meter, traced bool) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	n := runtime.NumCPU()
	s := &stack{
		tr:     &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
		served: make(chan struct{}),
	}
	s.meter.Store(m)
	cfg := service.Config{Store: timedStore{SessionStore: st, m: &s.meter}}
	opts := []client.Option{
		client.WithHTTPClient(&http.Client{Transport: s.tr, Timeout: requestTimeout}),
		client.WithBackoff(0, 0, 0),
	}
	if traced {
		s.rec = trace.NewRecorder("bench")
		s.rec.SetLimits(recorderLimit, recorderLimit, 0)
		t := trace.New("bench", s.rec)
		cfg.Tracer = t
		opts = append(opts, client.WithTracer(t))
	}
	s.svc = service.NewServer(cfg)
	s.hs = &http.Server{Handler: s.svc.Handler()}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // always ErrServerClosed, from close or crash
	}()
	s.cl = client.New("http://"+ln.Addr().String(), opts...)
	return s, nil
}

// crash stops serving the way a killed daemon does: the listener and every
// connection close, and the service is never drained or flushed.
func (s *stack) crash() {
	_ = s.hs.Close() // the listener's close error has no one to report to
	<-s.served
	s.tr.CloseIdleConnections()
}

// close shuts the stack down cleanly: stop serving, then drain and close
// the service (which flushes resident sessions and closes the store).
func (s *stack) close() {
	s.meter.Store(nil)
	s.crash()
	s.svc.Close()
}

// forEach runs f(0..n-1) on nproc goroutines — the most request-issuing
// goroutines the benchmark runs — and returns the first error.
func forEach(n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && errs[w] == nil; i = int(next.Add(1) - 1) {
				errs[w] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
