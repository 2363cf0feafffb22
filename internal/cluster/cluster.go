// Package cluster makes session ownership explicit for crowdfusiond.
//
// The refinement loop is embarrassingly partitionable: each session's
// posterior is conditioned independently, so a fleet of daemons can split
// the session space with no cross-node coordination at all — provided every
// node (and every client) agrees, deterministically, on which node owns
// which session. This package is that agreement.
//
// Placement is rendezvous (highest-random-weight) hashing over a static
// peer list: every participant scores each (peer, sessionID) pair with the
// same hash and the highest score wins. Rendezvous hashing needs no virtual
// nodes, no shared state, and has the minimal-disruption property the
// service relies on for rebalancing: when a node leaves, exactly the
// sessions it owned move (spread evenly over the survivors), and when it
// returns, exactly those sessions move back — every other placement is
// untouched, so a topology change rebalances at most ~K/N of K sessions
// across N nodes.
//
// A Ring layers liveness onto the static list: it probes peers (GET
// /healthz by default) and excludes suspects from placement, so when a node
// dies its sessions deterministically re-home onto the surviving peers. The
// new owner rebuilds each adopted session from the shared session store by
// replaying its op log — the same record-replay path as crash recovery —
// which is what makes failover state-preserving rather than state-losing.
//
// Ownership during the detection window is converging, not consistent: for
// roughly one probe interval after a death (or a revival) different
// participants may disagree about the owner. The session layer tolerates
// this — misrouted requests are answered with a machine-readable not_owner
// redirect, relinquished instances flush before retiring, and the shared
// store's version-ordered, stat-fenced appends refuse a divergent second
// writer it can detect — so the window degrades to redirects and retries.
// (A simultaneous-append race narrower than one fsync remains until the
// store grows per-session leases; see ROADMAP.)
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Normalize canonicalizes one peer address to the form placement hashes
// and clients dial: a base URL with an http scheme and no trailing slash.
// Bare host:port gets "http://" prepended. Placement hashes the normalized
// string, so every participant must normalize — which is why the Ring and
// the routing client both call this instead of trusting flag spelling.
func Normalize(addr string) (string, error) {
	a := strings.TrimSpace(addr)
	if a == "" {
		return "", errors.New("cluster: empty peer address")
	}
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	if !strings.HasPrefix(a, "http://") && !strings.HasPrefix(a, "https://") {
		return "", fmt.Errorf("cluster: peer %q: only http/https addresses are supported", addr)
	}
	scheme := "http://"
	if strings.HasPrefix(a, "https://") {
		scheme = "https://"
	}
	host := strings.TrimRight(strings.TrimPrefix(a, scheme), "/")
	if host == "" {
		return "", fmt.Errorf("cluster: peer %q has no host", addr)
	}
	return scheme + host, nil
}

// NormalizeList normalizes, deduplicates, and sorts a peer list.
func NormalizeList(addrs []string) ([]string, error) {
	out := make([]string, 0, len(addrs))
	for _, a := range addrs {
		n, err := Normalize(a)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	sort.Strings(out)
	return slices.Compact(out), nil
}

// score is the rendezvous weight of key on peer: FNV-1a over
// peer + NUL + key, passed through a splitmix64 finalizer so the avalanche
// is good enough for the ~K/N rebalance bound even on structured inputs
// (peer addresses differing in one digit, hex session IDs).
func score(peer, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(peer); i++ {
		h ^= uint64(peer[i])
		h *= prime64
	}
	// Fold in a NUL separator (XOR with 0 is a no-op, the multiply is
	// not), keeping ("ab","c") and ("a","bc") distinct.
	h *= prime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Owner returns the peer that owns key under rendezvous hashing: the
// highest-scoring peer, ties broken toward the lexicographically smaller
// address so placement is a pure function of (peers, key) everywhere.
// Peers must be non-empty and normalized (see NormalizeList).
func Owner(peers []string, key string) string {
	best, bestScore := "", uint64(0)
	for _, p := range peers {
		s := score(p, key)
		if best == "" || s > bestScore || (s == bestScore && p < best) {
			best, bestScore = p, s
		}
	}
	return best
}

// RankOrder returns the peers ordered by descending rendezvous preference
// for key: element 0 is the owner, element 1 is where the session re-homes
// if the owner dies, and so on. Clients walk this order when routing.
func RankOrder(peers []string, key string) []string {
	type ranked struct {
		peer  string
		score uint64
	}
	rs := make([]ranked, len(peers))
	for i, p := range peers {
		rs[i] = ranked{p, score(p, key)}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].score != rs[j].score {
			return rs[i].score > rs[j].score
		}
		return rs[i].peer < rs[j].peer
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.peer
	}
	return out
}

// Config configures one node's view of the ring.
type Config struct {
	// Self is this node's advertised address (normalized into the peer
	// list; added to it if absent).
	Self string
	// Peers is the static cluster membership, including or excluding Self.
	Peers []string
	// ProbeInterval is how often each peer's liveness is probed
	// (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default ProbeInterval/2).
	ProbeTimeout time.Duration
	// SuspectAfter is how many consecutive probe failures mark a peer dead
	// (default 2; one success marks it alive again).
	SuspectAfter int
	// Probe checks one peer. The default issues GET <addr>/healthz and
	// treats any 2xx as alive.
	Probe func(ctx context.Context, addr string) error
	// OnChange, when set, is called from the prober goroutine after every
	// aliveness transition (the epoch has already advanced). The session
	// layer hooks it to relinquish sessions it no longer owns.
	OnChange func()
	// Logger receives peer up/down transitions. Nil discards them.
	Logger *slog.Logger
}

// Ring is one node's live view of the cluster: the static rendezvous
// membership plus probed peer liveness. Placement queries (Owner, Owns,
// Rank) consult only alive peers, so they answer "who serves this session
// right now"; Static* variants consult the full list and answer "who serves
// it when everyone is up". All methods are safe for concurrent use.
type Ring struct {
	self  string
	peers []string // sorted, deduped, includes self
	cfg   Config

	mu    sync.RWMutex
	down  map[string]bool
	fails map[string]int
	epoch uint64

	stop chan struct{}
	done chan struct{}
}

// New validates and normalizes the configuration and returns a ring with
// every peer presumed alive. Call Start to begin probing (a single-node
// ring never needs to).
func New(cfg Config) (*Ring, error) {
	self, err := Normalize(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: -self: %w", err)
	}
	peers, err := NormalizeList(append(append([]string(nil), cfg.Peers...), cfg.Self))
	if err != nil {
		return nil, err
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval / 2
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2
	}
	if cfg.Probe == nil {
		cfg.Probe = httpProbe
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	return &Ring{
		self:  self,
		peers: peers,
		cfg:   cfg,
		down:  make(map[string]bool),
		fails: make(map[string]int),
	}, nil
}

// httpProbe is the default liveness check: GET <addr>/healthz, any 2xx is
// alive. The context carries the probe timeout.
func httpProbe(ctx context.Context, addr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("cluster: %s/healthz: HTTP %d", addr, resp.StatusCode)
	}
	return nil
}

// Self returns this node's normalized address.
func (r *Ring) Self() string { return r.self }

// Peers returns the full static membership (sorted; includes self).
func (r *Ring) Peers() []string { return append([]string(nil), r.peers...) }

// Size returns the static cluster size.
func (r *Ring) Size() int { return len(r.peers) }

// Alive returns the peers currently considered alive. Self is always
// alive from its own point of view.
func (r *Ring) Alive() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.aliveLocked()
}

// PeerAlive reports whether addr is currently considered alive. The
// session layer's lease steal policy consults it: a held lease is only
// taken over when its holder looks dead from here, so two nodes with
// disagreeing partition views don't steal a session back and forth.
// Unknown addresses (not in the membership) report dead.
func (r *Ring) PeerAlive(addr string) bool {
	if addr == r.self {
		return true
	}
	known := false
	for _, p := range r.peers {
		if p == addr {
			known = true
			break
		}
	}
	if !known {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return !r.down[addr]
}

func (r *Ring) aliveLocked() []string {
	alive := make([]string, 0, len(r.peers))
	for _, p := range r.peers {
		if p == r.self || !r.down[p] {
			alive = append(alive, p)
		}
	}
	return alive
}

// Epoch returns the topology epoch: it advances on every aliveness
// transition, so a cached placement is valid exactly while the epoch it was
// computed under still reads the same.
func (r *Ring) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// Owner returns the peer that owns key among the currently-alive peers.
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Owner(r.aliveLocked(), key)
}

// Owns reports whether this node owns key right now.
func (r *Ring) Owns(key string) bool { return r.Owner(key) == r.self }

// Rank returns the alive peers in rendezvous preference order for key.
func (r *Ring) Rank(key string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return RankOrder(r.aliveLocked(), key)
}

// StaticOwner returns the owner of key with every peer presumed alive —
// placement as configured, independent of probe state. The daemon's boot
// scan uses it to report which on-disk sessions are this node's.
func (r *Ring) StaticOwner(key string) string { return Owner(r.peers, key) }

// SetOnChange replaces the change callback (see Config.OnChange). The
// session server claims it at construction to hook rebalancing; call
// before Start so no transition is missed.
func (r *Ring) SetOnChange(f func()) {
	r.mu.Lock()
	r.cfg.OnChange = f
	r.mu.Unlock()
}

// Start launches the liveness prober. It is a no-op for a single-node
// ring (there is nobody to probe).
func (r *Ring) Start() {
	if len(r.peers) == 1 || r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.probeLoop(r.stop, r.done)
}

// Stop halts the prober and waits for it to exit.
func (r *Ring) Stop() {
	if r.stop == nil {
		return
	}
	close(r.stop)
	<-r.done
	r.stop = nil
}

// probeLoop probes every peer each interval and applies the transitions.
func (r *Ring) probeLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		r.probeOnce()
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// probeOnce probes all non-self peers concurrently and folds the results
// into the aliveness map, firing OnChange if anything transitioned.
func (r *Ring) probeOnce() {
	type result struct {
		peer string
		err  error
	}
	results := make(chan result, len(r.peers))
	n := 0
	for _, p := range r.peers {
		if p == r.self {
			continue
		}
		n++
		go func(p string) {
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
			defer cancel()
			results <- result{p, r.cfg.Probe(ctx, p)}
		}(p)
	}
	// Drain every probe BEFORE taking the lock: /healthz handlers read the
	// ring, so holding the write lock across network waits would make each
	// node's health endpoint stall on its own probe cycle — and the whole
	// cluster would then probe-timeout each other in a ring of stalls.
	settled := make([]result, 0, n)
	for i := 0; i < n; i++ {
		settled = append(settled, <-results)
	}
	changed := false
	r.mu.Lock()
	for _, res := range settled {
		if res.err != nil {
			r.fails[res.peer]++
			if r.fails[res.peer] == r.cfg.SuspectAfter && !r.down[res.peer] {
				r.down[res.peer] = true
				changed = true
				r.cfg.Logger.Warn("cluster: peer down", "peer", res.peer,
					"probe_failures", r.fails[res.peer], "err", res.err)
			}
		} else {
			r.fails[res.peer] = 0
			if r.down[res.peer] {
				delete(r.down, res.peer)
				changed = true
				r.cfg.Logger.Info("cluster: peer back up", "peer", res.peer)
			}
		}
	}
	if changed {
		r.epoch++
	}
	onChange := r.cfg.OnChange
	r.mu.Unlock()
	if changed && onChange != nil {
		onChange()
	}
}
