// Command crowdfusiond serves the CrowdFusion refinement loop over
// HTTP/JSON: clients create sessions from fused marginals or an explicit
// joint, pull entropy-maximizing task batches, post crowd answers, and
// read refined posteriors. See the README's "Serving" section for the
// API and a curl quickstart.
//
// Usage:
//
//	crowdfusiond -addr :8377 -session-ttl 30m -max-sessions 100000
//	crowdfusiond -store file -data-dir /var/lib/crowdfusion
//
// With -store file, sessions are durable: every acknowledged merge is
// fsynced to an append-only op log before the response is written, and a
// restarted daemon recovers each session bit-identically by replaying its
// log (lazily, on first touch). With the default -store memory, a restart
// loses all sessions — PR 3's behavior.
//
// # Sharding
//
// A fleet of daemons splits the session space with -peers and -self:
//
//	crowdfusiond -addr :8377 -self 10.0.0.1:8377 \
//	    -peers 10.0.0.1:8377,10.0.0.2:8377,10.0.0.3:8377 \
//	    -store file -data-dir /mnt/shared/crowdfusion
//
// Every node (and the ring-aware client) computes the same rendezvous
// placement over the -peers list, so each session has exactly one serving
// node; misrouted requests answer HTTP 421 with code "not_owner" and the
// owner's address. Nodes probe each other's /healthz every -heartbeat;
// when one dies, its sessions deterministically re-home onto the
// survivors, which rebuild them from the shared -data-dir by replaying
// their op logs — the same path as crash recovery. Cluster mode therefore
// requires -store file on storage all nodes share.
//
// # Fenced ownership
//
// Placement alone cannot close the dual-writer window: a partitioned node
// that everyone else believes dead keeps serving its resident sessions
// until its next probe round. Leases close it for real. With -lease, the
// owner of a session holds a TTL'd write lease with a monotonic fencing
// epoch, renewed every -lease-renew; every write is stamped with the
// epoch, and the store refuses a deposed owner's write with HTTP 421 code
// "fenced" + the new holder's address. Cluster mode defaults to
// -lease 10s; single-node mode defaults to off (one process, one writer).
// -clock-skew shifts this node's clock (lease arithmetic included) for
// chaos testing — see the chaos subtest of smoke_test.go.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests (including merges) drain, live sessions
// are flushed to a durable store, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crowdfusion/internal/cluster"
	"crowdfusion/internal/service"
	"crowdfusion/internal/store"
	"crowdfusion/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", ":8377", "listen address (use :0 for an ephemeral port; the bound address is logged)")
		ttl         = flag.Duration("session-ttl", 30*time.Minute, "idle session lifetime before eviction (0 disables)")
		maxSessions = flag.Int("max-sessions", 100_000, "live session cap (0 = unlimited)")
		maxConc     = flag.Int("max-concurrent", 0, "concurrent select/merge requests (0 = one per hardware thread)")
		queueWait   = flag.Duration("queue-timeout", 5*time.Second, "how long a request may wait for a compute slot before 503")
		reqTimeout  = flag.Duration("request-timeout", 60*time.Second, "whole-request timeout")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
		seed        = flag.Int64("seed", 1, "seed for Random selectors")
		storeKind   = flag.String("store", "memory", "session store: memory (volatile) or file (durable)")
		dataDir     = flag.String("data-dir", "", "data directory for -store file")
		compactOps  = flag.Int("store-compact", 0, "ops per session before its log is compacted into the snapshot (0 = default)")
		peersFlag   = flag.String("peers", "", "comma-separated cluster peer addresses (host:port or URL); enables shard-aware serving")
		selfAddr    = flag.String("self", "", "this node's advertised address within -peers; required in cluster mode")
		heartbeat   = flag.Duration("heartbeat", time.Second, "peer liveness probe interval in cluster mode")
		maxSubs     = flag.Int("max-subscribers", 0, "event-stream subscribers per session (0 = default)")
		leaseTTL    = flag.Duration("lease", 0, "session write-lease TTL with fencing epochs (0 = off; cluster mode defaults to 10s)")
		leaseRenew  = flag.Duration("lease-renew", 0, "lease heartbeat interval (0 = lease/3)")
		clockSkew   = flag.Duration("clock-skew", 0, "shift this node's clock by the given offset (chaos testing; affects lease expiry arithmetic)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		anonWorker  = flag.String("anon-worker", "", "worker ID credited for unattributed legacy submissions (default \"anon\")")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/traces and /debug/pprof on this address (empty = off)")
	)
	flag.Parse()
	leaseSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "lease" {
			leaseSet = true
		}
	})

	var logHandler slog.Handler
	switch *logFormat {
	case "text":
		logHandler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		logHandler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "crowdfusiond: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(1)
	}
	logger := slog.New(logHandler)
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}
	// Spans are always recorded in-process (bounded memory); -debug-addr
	// decides whether anything serves them.
	nodeName := *selfAddr
	if nodeName == "" {
		nodeName = "local"
	}
	recorder := trace.NewRecorder(nodeName)
	tracer := trace.New(nodeName, recorder)

	// Cluster topology first: store wiring depends on whether this node is
	// part of a fleet.
	var ring *cluster.Ring
	if *peersFlag != "" {
		if *selfAddr == "" {
			fatalf("-peers requires -self (this node's advertised address)")
		}
		if *storeKind != "file" {
			fatalf("-peers requires -store file on storage shared by all nodes: failover adopts sessions by replaying their records from the shared store")
		}
		var err error
		ring, err = cluster.New(cluster.Config{
			Self:          *selfAddr,
			Peers:         strings.Split(*peersFlag, ","),
			ProbeInterval: *heartbeat,
			Logger:        logger,
		})
		if err != nil {
			fatalf("building cluster ring: %v", err)
		}
	} else if *selfAddr != "" {
		fatalf("-self is only meaningful with -peers")
	}

	var sessions store.SessionStore
	switch *storeKind {
	case "memory":
		if *dataDir != "" {
			fatalf("-data-dir is only meaningful with -store file")
		}
		sessions = store.NewMemory()
	case "file":
		if *dataDir == "" {
			fatalf("-store file requires -data-dir")
		}
		fileStore, err := store.NewFile(*dataDir, *compactOps)
		if err != nil {
			fatalf("opening session store: %v", err)
		}
		fileStore.Logger = logger
		if ring == nil {
			// One writer per data dir: a second daemon sharing it would
			// corrupt session logs. The kernel drops the lock on process
			// death, so crash-restart needs no cleanup.
			if err := fileStore.Lock(); err != nil {
				fatalf("locking session store: %v", err)
			}
		}
		// Recovery scan: count what survived the last run. Sessions load
		// lazily on first touch; the scan only proves the directory is
		// readable and tells the operator what is there. In cluster mode it
		// also reports how the ring partitions the on-disk sessions, so a
		// misconfigured -peers list is visible at boot, not at first 421.
		ids, err := fileStore.List()
		if err != nil {
			fatalf("scanning session store: %v", err)
		}
		if ring != nil {
			owned := 0
			for _, id := range ids {
				if ring.StaticOwner(id) == ring.Self() {
					owned++
				}
			}
			logger.Info(fmt.Sprintf("store: %d session(s) on disk in %s; this node owns %d of them (loaded lazily on first touch)",
				len(ids), *dataDir, owned))
		} else {
			logger.Info(fmt.Sprintf("store: %d session(s) on disk in %s (loaded lazily on first touch)", len(ids), *dataDir))
		}
		sessions = fileStore
	default:
		fatalf("unknown -store %q (want memory or file)", *storeKind)
	}

	// Leases default on in cluster mode: that is where a second writer can
	// exist. An explicit -lease 0 keeps them off (flag.Visit distinguishes
	// "unset" from "set to zero").
	if ring != nil && !leaseSet {
		*leaseTTL = 10 * time.Second
	}

	cfg := service.Config{
		TTL:            *ttl,
		MaxSessions:    *maxSessions,
		MaxConcurrent:  *maxConc,
		QueueTimeout:   *queueWait,
		RequestTimeout: *reqTimeout,
		Seed:           *seed,
		Store:          sessions,
		MaxSubscribers: *maxSubs,
		Cluster:        ring,
		Logger:         logger,
		Tracer:         tracer,
		LeaseTTL:       *leaseTTL,
		LeaseRenew:     *leaseRenew,
		AnonWorker:     *anonWorker,
	}
	if *clockSkew != 0 {
		skew := *clockSkew
		cfg.Clock = func() time.Time { return time.Now().Add(skew) }
		logger.Info("chaos: clock skewed", "skew", skew)
	}
	if *leaseTTL > 0 {
		logger.Info("leases enabled: fencing epochs on every write", "ttl", *leaseTTL)
	}
	svc := service.NewServer(cfg)

	// The ops surface lives on its own listener so production traffic and
	// profiling/trace dumps can be firewalled apart. pprof handlers are
	// wired explicitly (never on the serving mux, and without relying on
	// the DefaultServeMux side-effect registration).
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatalf("debug listen %s: %v", *debugAddr, err)
		}
		dmux := http.NewServeMux()
		dmux.Handle("/debug/traces", trace.Handler(recorder))
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbgSrv := &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		defer dbgSrv.Close()
		go func() {
			logger.Info(fmt.Sprintf("debug listening on %s", dln.Addr()))
			if err := dbgSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug serve failed", "err", err)
			}
		}()
	}

	// Bind before serving so -addr :0 can report the actual port — the
	// contract multi-daemon test scripts rely on instead of hardcoding.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Event streams are long-lived by design; Shutdown would wait on them
	// forever. Ending them when Shutdown begins lets the graceful drain
	// handle only request-response work (subscribers reconnect elsewhere).
	httpSrv.RegisterOnShutdown(svc.StopStreams)

	errc := make(chan error, 1)
	go func() {
		logger.Info(fmt.Sprintf("listening on %s", ln.Addr()))
		errc <- httpSrv.Serve(ln)
	}()
	if ring != nil {
		ring.Start()
		logger.Info("cluster up", "self", ring.Self(), "peers", ring.Size(), "heartbeat", *heartbeat)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case sig := <-sigc:
		logger.Info("signal received, draining", "signal", sig.String())
	case err := <-errc:
		fatalf("serve: %v", err)
	}

	// Stop accepting, drain in-flight HTTP requests, then drain any
	// compute the HTTP layer already timed out on, so every accepted
	// merge completes before exit. The ring prober stops first so a
	// topology flap cannot trigger relinquishments mid-drain.
	if ring != nil {
		ring.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "err", err)
	}
	svc.Close()
	logger.Info("drained, exiting")
}
