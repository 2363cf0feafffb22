//go:build smoke && unix

// The smoke harness drives the real crowdfusiond binary end to end, each
// node its own OS process, so SIGKILL, SIGTERM, the data directory's flock
// and the startup log are all real. The OS picks every port, and every
// wait polls a condition under a deadline.
//
//	go test -tags smoke -count=1 ./cmd/crowdfusiond/
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"crowdfusion/client"
	"crowdfusion/internal/chaos"
	"crowdfusion/internal/service"
)

// daemon is the crowdfusiond binary TestSmoke builds for its subtests.
var daemon string

// patience bounds every wait: a node starting, a failover, a counter.
const patience = 30 * time.Second

// createBody is the session every scenario refines: the paper's running
// example, two tasks a round, budget six.
const createBody = `{"marginals":[0.5,0.63,0.58,0.49],"pc":0.8,"k":2,"budget":6}`

var prior = []float64{0.5, 0.63, 0.58, 0.49}

func TestSmoke(t *testing.T) {
	daemon = filepath.Join(t.TempDir(), "crowdfusiond")
	if out, err := exec.Command("go", "build", "-o", daemon, ".").CombinedOutput(); err != nil {
		t.Fatalf("building crowdfusiond: %v\n%s", err, out)
	}
	t.Run("daemon", smokeDaemon)
	t.Run("restart", smokeRestart)
	t.Run("cluster", smokeCluster)
	t.Run("chaos", smokeChaos)
}

// smokeDaemon: one leased node on the memory store — a round, a retry, an
// incremental round under a live event stream, the operational, tracing
// and debug surfaces, a learned worker-accuracy gap, and a SIGTERM drain.
func smokeDaemon(t *testing.T) {
	d := start(t, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-lease", "5s", "-lease-renew", "200ms")
	c, ctx := newCli(t, d.base), t.Context()
	id := create(t, d.base)
	sel, merge := round(t, c, id)
	check(t, sel.TaskEntropy > 0 && merge.Spent == len(sel.Tasks), "select %+v, spent %d", sel, merge.Spent)
	state := must(c.GetSession(ctx, id, false))(t)
	check(t, state.Version == 1 && !sameBits(state.Marginals, prior), "after one round: version %d marginals %v", state.Version, state.Marginals)
	retry(t, c, id, sel)

	// An incremental round, one judgment at a time, under a live stream
	// that carries select, partial and merge events; the streamed
	// posterior is the one GET serves.
	wctx, stopWatch := context.WithCancel(ctx)
	events, seen := must(c.Watch(wctx, id))(t), map[string]int{}
	next := func(typ string) client.SessionEvent {
		t.Helper()
		for timeout := time.After(patience); ; {
			select {
			case ev, ok := <-events:
				check(t, ok, "event stream closed before a %s event (saw %v)", typ, seen)
				if seen[ev.Type]++; ev.Type == typ {
					return ev
				}
			case <-timeout:
				t.Fatalf("no %s event (saw %v)", typ, seen)
			}
		}
	}
	next(client.EventSnapshot)
	sel2 := must(c.Select(ctx, id, 0))(t)
	var part *client.AnswersResponse
	for _, task := range sel2.Tasks {
		part = must(c.SubmitAnswer(ctx, id, task, true, sel2.Version))(t)
	}
	check(t, part != nil && part.Merged, "incremental round did not commit: %+v", part)
	streamed := next(client.EventMerge)
	check(t, seen[client.EventSelect] > 0 && seen[client.EventPartial] > 0, "stream missed select or partial events: %v", seen)
	stopWatch()
	fetched := must(c.GetSession(ctx, id, false))(t)
	check(t, sameBits(streamed.Marginals, fetched.Marginals), "streamed posterior %v != fetched %v", streamed.Marginals, fetched.Marginals)

	wantMetrics(t, d.base, map[string]float64{
		"sessions_live": 1, "merges_applied_total": 2, "merge_replays_total": 1,
		"partial_answers_total": float64(len(sel2.Tasks)), "streams_served_total": 1,
		"leases_held": 1, "fenced_writes_refused_total": 0,
	}, "leases_renewed_total")
	h := healthz(t, d.base)
	check(t, h.Leases != nil && h.Leases.Held == 1, "healthz lease block: %+v", h.Leases)

	// A caller's traceparent is continued and the root span named in
	// X-Request-Id; an error envelope carries the request id; the debug
	// listener knows the trace and serves a CPU profile.
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	hdr := traced(t, d.base+"/v1/sessions/"+id, traceID)
	check(t, strings.HasPrefix(hdr.Get("traceparent"), "00-"+traceID+"-"), "response did not continue the trace: %q", hdr.Get("traceparent"))
	check(t, hexStart.MatchString(hdr.Get("X-Request-Id")), "X-Request-Id %q", hdr.Get("X-Request-Id"))
	_, body := do(http.MethodGet, d.base+"/v1/sessions/does-not-exist", "")
	check(t, hexStart.MatchString(decode[service.ErrorResponse](t, body).RequestID), "error envelope lacks request_id: %s", body)
	dbg := "http://" + d.logged(t, `debug listening on ([0-9.:]+)`)
	eventually(t, "trace in /debug/traces", func() error {
		if st, body := do(http.MethodGet, dbg+"/debug/traces?trace="+traceID, ""); st != http.StatusOK || !bytes.Contains(body, []byte(traceID)) {
			return fmt.Errorf("HTTP %d: %s", st, body)
		}
		return nil
	})
	st, _ := do(http.MethodGet, dbg+"/debug/pprof/profile?seconds=1", "")
	check(t, st == http.StatusOK, "pprof profile answered %d", st)

	// An em session learns a worker-accuracy gap from its own traffic:
	// alice answers consistently twice, mallory flips every judgment.
	em := must(c.CreateSession(ctx, client.CreateSessionRequest{Marginals: prior, Pc: 0.8, K: 2, Budget: 64, WorkerModel: client.WorkerModelEM}))(t)
	check(t, em.WorkerModel == client.WorkerModelEM, "em model not echoed: %q", em.WorkerModel)
	for v, worker := range []string{"alice", "mallory", "alice"} {
		js := make([]client.Judgment, 4)
		for task := range js {
			js[task] = client.Judgment{Task: task, Answer: (task%2 == 0) == (worker == "alice"), Worker: worker, Source: "smoke"}
		}
		r := must(c.SubmitJudgments(ctx, em.ID, js, v, false))(t)
		check(t, r.Merged, "attributed round %d (%s) not merged", v, worker)
	}
	cal := must(c.Calibration(ctx, em.ID, 0))(t)
	check(t, cal.WorkerModel == client.WorkerModelEM && cal.Observations == 12 && cal.Refits >= 1,
		"calibration: model %q observations %d refits %d", cal.WorkerModel, cal.Observations, cal.Refits)
	check(t, len(cal.Workers) == 2 && cal.Workers[0].Worker == "alice" && cal.Workers[1].Worker == "mallory" &&
		cal.Workers[0].Accuracy > cal.Workers[1].Accuracy, "accuracy gap not learned: %+v", cal.Workers)
	fleet := must(c.Workers(ctx))(t)
	check(t, slices.ContainsFunc(fleet.Workers, func(w client.WorkerFleetInfo) bool { return w.Worker == "mallory" }), "fleet view lacks mallory: %+v", fleet.Workers)
	wantMetrics(t, d.base, map[string]float64{"workers_tracked": 2}, "worker_refits_total", "weighted_merges_total")
	d.stop(t, syscall.SIGTERM)
}

// smokeRestart: SIGKILL a node on the file store after an acknowledged
// round; restarted over the same directory, it serves the session byte
// for byte, replays the round's retry and finishes the loop.
func smokeRestart(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-store", "file", "-data-dir", t.TempDir()}
	d := start(t, args...)
	c := newCli(t, d.base)
	id := create(t, d.base)
	sel, _ := round(t, c, id)
	before := c.rawSession(t, id)
	d.stop(t, syscall.SIGKILL)
	st, _ := do(http.MethodGet, d.base+"/healthz", "")
	check(t, st == 0, "daemon still serving after SIGKILL (HTTP %d)", st)

	d = start(t, args...)
	check(t, strings.Contains(d.output(), "1 session(s) on disk"), "recovery scan did not find the session")
	c = newCli(t, d.base)
	after := c.rawSession(t, id)
	check(t, bytes.Equal(after, before), "recovered state diverged:\nbefore %s\nafter  %s", before, after)
	retry(t, c, id, sel)
	check(t, refine(t, c, id).Done, "session not done after the loop")
	wantMetrics(t, d.base, map[string]float64{"sessions_recovered_total": 1}, "store_appends_total")
	d.stop(t, syscall.SIGTERM)
}

// smokeCluster: three nodes on one shared file store. A misrouted request
// answers 421 not_owner naming the owner, one trace id reaches both hops'
// JSON logs, and once the owner is SIGKILLed a survivor adopts its
// session byte for byte, replays the round's retry and finishes the loop.
func smokeCluster(t *testing.T) {
	addrs, dir := freeAddrs(t, 3), t.TempDir()
	nodes := make([]*node, 3)
	for i, a := range addrs {
		nodes[i] = start(t, "-addr", a, "-self", a, "-peers", strings.Join(addrs, ","),
			"-heartbeat", "200ms", "-store", "file", "-data-dir", dir, "-log-format", "json")
	}
	// Each node mints IDs it owns, so the creating node serves its session.
	var ids []string
	for _, n := range nodes {
		eventually(t, n.base+" sees the whole cluster", func() error {
			if alive := healthz(t, n.base).Cluster.PeersAlive; alive != 3 {
				return fmt.Errorf("peers_alive %d", alive)
			}
			return nil
		})
		ids = append(ids, create(t, n.base))
		st, _ := do(http.MethodGet, n.base+"/v1/sessions/"+ids[len(ids)-1], "")
		check(t, st == http.StatusOK, "creating node %s does not serve its own session (HTTP %d)", n.base, st)
	}
	id, path := ids[0], "/v1/sessions/"+ids[0]
	for _, n := range nodes[1:] {
		st, body := do(http.MethodGet, n.base+path, "")
		env := decode[service.ErrorResponse](t, body)
		check(t, st == http.StatusMisdirectedRequest && env.Code == client.CodeNotOwner && env.Owner == nodes[0].base,
			"non-owner %s: HTTP %d %s, want 421 not_owner naming %s", n.base, st, body, nodes[0].base)
		st, _ = do(http.MethodGet, env.Owner+path, "")
		check(t, st == http.StatusOK, "owner refused the redirect target (HTTP %d)", st)
	}
	const traceID = "deadbeefcafef00d5eed5a1ad00dfade"
	traced(t, nodes[1].base+path, traceID)
	traced(t, nodes[0].base+path, traceID)
	nodes[1].logged(t, `"status":421,.*"trace_id":"`+traceID+`"`)
	nodes[0].logged(t, `"status":200,.*"trace_id":"`+traceID+`"`)

	c := newCli(t, addrs...)
	sel, _ := round(t, c, id)
	before := c.rawSession(t, id)
	nodes[0].stop(t, syscall.SIGKILL)
	after := c.rawSession(t, id)
	check(t, bytes.Equal(after, before), "adopted session diverged:\nbefore %s\nafter  %s", before, after)
	retry(t, c, id, sel)
	check(t, refine(t, c, id).Done, "session not done on the survivors")
	recovered := metrics(t, nodes[1].base)["sessions_recovered_total"] + metrics(t, nodes[2].base)["sessions_recovered_total"]
	check(t, recovered >= 1, "no survivor counted a recovered session")
	nodes[1].stop(t, syscall.SIGTERM)
	nodes[2].stop(t, syscall.SIGTERM)
}

// smokeChaos: three leased nodes, each advertised through its own
// in-process chaos.Proxy. Partitioning the owner's proxy leaves it running
// and believing it owns its session; a survivor takes the lease at a
// higher epoch (a steal in netsplit, a plain expiry in skew, where the
// owner's clock runs 3s behind). The deposed owner's write is refused 421
// fenced naming the holder and leaves the history untouched, and once
// healed the loop ends on the unfaulted baseline's posterior, bit for bit.
func smokeChaos(t *testing.T) {
	var baseline *client.SessionInfo
	if !t.Run("baseline", func(t *testing.T) {
		_, _, c, id := fleet(t)
		baseline = refine(t, c, id)
	}) {
		t.FailNow()
	}
	t.Run("netsplit", func(t *testing.T) { faulted(t, baseline, true) })
	t.Run("skew", func(t *testing.T) { faulted(t, baseline, false, "-clock-skew", "-3s") })
}

func faulted(t *testing.T, baseline *client.SessionInfo, wantSteal bool, extra ...string) {
	nodes, proxies, c, id := fleet(t, extra...)
	round(t, c, id)
	// Peers can no longer reach node 0; it still reaches them and the
	// shared store, so it keeps renewing its lease.
	proxies[0].Partition()
	adopted := c.rawSession(t, id)
	path := nodes[0].base + "/v1/sessions/" + id
	st, body := do(http.MethodPost, path+"/select", "")
	if st == http.StatusOK {
		s := decode[client.SelectResponse](t, body)
		req := must(json.Marshal(client.AnswersRequest{Tasks: s.Tasks, Answers: yes{}.Answers(s.Tasks), Version: &s.Version}))(t)
		st, body = do(http.MethodPost, path+"/answers", string(req))
	}
	env := decode[service.ErrorResponse](t, body)
	holders := []string{"http://" + proxies[1].Addr(), "http://" + proxies[2].Addr()}
	check(t, st == http.StatusMisdirectedRequest && env.Code == client.CodeFenced && slices.Contains(holders, env.Owner),
		"deposed owner's write: HTTP %d %s, want 421 fenced naming one of %v", st, body, holders)
	fenced := metrics(t, nodes[0].base)["fenced_writes_refused_total"]
	check(t, fenced >= 1, "node 0 fenced_writes_refused_total = %v", fenced)
	stolen := metrics(t, nodes[1].base)["leases_stolen_total"] + metrics(t, nodes[2].base)["leases_stolen_total"]
	check(t, (stolen >= 1) == wantSteal, "leases stolen = %v, want a steal: %v", stolen, wantSteal)
	after := c.rawSession(t, id)
	check(t, bytes.Equal(after, adopted), "fenced write forked the history:\nat adoption   %s\nafter refusal %s", adopted, after)

	proxies[0].Heal()
	final := refine(t, c, id)
	check(t, final.Version == baseline.Version && final.Spent == baseline.Spent && final.Done == baseline.Done &&
		sameBits(final.Marginals, baseline.Marginals), "healed posterior diverged from the unfaulted run:\nbaseline %+v\nfaulted  %+v", baseline, final)
}

// fleet boots three leased nodes on one data directory, each behind its
// own proxy; extra flags go to node 0, which owns the returned session.
func fleet(t *testing.T, extra ...string) ([]*node, []*chaos.Proxy, *cli, string) {
	addrs, dir := freeAddrs(t, 6), t.TempDir() // three nodes, then their proxies
	proxies, nodes := make([]*chaos.Proxy, 3), make([]*node, 3)
	for i := range proxies {
		proxies[i] = must(chaos.NewProxy(addrs[3+i], addrs[i]))(t)
		t.Cleanup(func() { proxies[i].Close() })
	}
	for i := range nodes {
		args := []string{"-addr", addrs[i], "-self", addrs[3+i], "-peers", strings.Join(addrs[3:], ","),
			"-heartbeat", "200ms", "-lease", "1s", "-lease-renew", "200ms", "-store", "file", "-data-dir", dir}
		nodes[i] = start(t, append(args, extra...)...)
		extra = nil // only node 0 takes them
	}
	id := create(t, "http://"+addrs[3])
	st, _ := do(http.MethodGet, nodes[0].base+"/v1/sessions/"+id, "")
	check(t, st == http.StatusOK, "node 0 does not serve the session it created (HTTP %d)", st)
	return nodes, proxies, newCli(t, addrs[3:]...), id
}

// node is one crowdfusiond process.
type node struct {
	cmd    *exec.Cmd
	log    string // file holding its stdout and stderr
	exited chan struct{}
	base   string // serving URL, read from the startup log
}

// start runs crowdfusiond with args and returns once it has logged its
// bound address and answers /healthz. The process is killed when the test
// ends, and its log is printed if the test failed.
func start(t *testing.T, args ...string) *node {
	t.Helper()
	out := must(os.CreateTemp(t.TempDir(), "crowdfusiond-*.log"))(t)
	defer out.Close() // the child holds its own descriptor
	n := &node{cmd: exec.Command(daemon, args...), log: out.Name(), exited: make(chan struct{})}
	n.cmd.Stdout, n.cmd.Stderr = out, out
	if err := n.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		n.cmd.Wait() // the exit status is read from ProcessState
		close(n.exited)
	}()
	t.Cleanup(func() {
		n.cmd.Process.Kill()
		<-n.exited
		if t.Failed() {
			t.Logf("crowdfusiond %s:\n%s", strings.Join(args, " "), n.output())
		}
	})
	n.base = "http://" + n.logged(t, `"listening on ([0-9.:]+)`)
	eventually(t, n.base+" healthy", func() error {
		if st, _ := do(http.MethodGet, n.base+"/healthz", ""); st != http.StatusOK {
			return fmt.Errorf("HTTP %d", st)
		}
		return nil
	})
	return n
}

func (n *node) output() string {
	b, _ := os.ReadFile(n.log) // a missing log reads as empty; the caller's check fails
	return string(b)
}

// logged waits for a log line matching expr and returns its last
// submatch.
func (n *node) logged(t *testing.T, expr string) string {
	t.Helper()
	re := regexp.MustCompile(expr)
	var m []string
	eventually(t, "log line "+expr, func() error {
		if m = re.FindStringSubmatch(n.output()); m == nil {
			return fmt.Errorf("not logged")
		}
		return nil
	})
	return m[len(m)-1]
}

// stop signals the node and waits for it to exit. SIGKILL is a crash: no
// drain, no flush. After SIGTERM the node must drain and exit 0.
func (n *node) stop(t *testing.T, sig syscall.Signal) {
	t.Helper()
	check(t, n.cmd.Process.Signal(sig) == nil, "%s: cannot send %v", n.base, sig)
	select {
	case <-n.exited:
	case <-time.After(patience):
		t.Fatalf("%s did not exit after %v", n.base, sig)
	}
	if sig == syscall.SIGTERM {
		check(t, n.cmd.ProcessState.ExitCode() == 0, "%s exited %v after SIGTERM", n.base, n.cmd.ProcessState)
		check(t, strings.Contains(n.output(), "drained, exiting"), "%s did not drain cleanly", n.base)
	}
}

// cli is a routing client whose transport keeps the raw body of the last
// 2xx non-stream answer: byte-identity checks compare what a daemon sent.
type cli struct {
	*client.Client
	mu   sync.Mutex
	last []byte
}

func newCli(t *testing.T, peers ...string) *cli {
	c := &cli{}
	c.Client = must(client.NewCluster(peers, client.WithHTTPClient(&http.Client{Transport: c, Timeout: patience})))(t)
	return c
}

func (c *cli) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || resp.StatusCode/100 != 2 || req.Header.Get("Accept") == "text/event-stream" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.last = body
	c.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// rawSession returns id's body with rounds, as served once routing settles.
func (c *cli) rawSession(t *testing.T, id string) []byte {
	t.Helper()
	eventually(t, "GET "+id, func() error {
		_, err := c.GetSession(t.Context(), id, true)
		return err
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// round selects id's next batch and answers it all true; it must merge.
func round(t *testing.T, c *cli, id string) (*client.SelectResponse, *client.AnswersResponse) {
	t.Helper()
	sel := must(c.Select(t.Context(), id, 0))(t)
	r := must(c.SubmitAnswers(t.Context(), id, sel.Tasks, yes{}.Answers(sel.Tasks), sel.Version))(t)
	check(t, len(sel.Tasks) > 0 && r.Merged, "round at version %d: tasks %v, merged %v", sel.Version, sel.Tasks, r.Merged)
	return sel, r
}

// retry resends the answer set of id's first round, sel: it must replay,
// spending nothing more.
func retry(t *testing.T, c *cli, id string, sel *client.SelectResponse) {
	t.Helper()
	r := must(c.SubmitAnswers(t.Context(), id, sel.Tasks, yes{}.Answers(sel.Tasks), sel.Version))(t)
	check(t, !r.Merged && r.Spent == len(sel.Tasks), "retry re-applied: merged %v, spent %d", r.Merged, r.Spent)
}

// refine runs id's loop to the end, retrying while the fleet converges (a
// committed answer set replays), and returns the final state.
func refine(t *testing.T, c *cli, id string) *client.SessionInfo {
	t.Helper()
	var final *client.SessionInfo
	eventually(t, "refinement loop", func() (err error) {
		final, err = c.Refine(t.Context(), id, yes{})
		return err
	})
	return final
}

// yes is the crowd of every scenario: it answers every task true.
type yes struct{}

func (yes) Answers(tasks []int) []bool { return slices.Repeat([]bool{true}, len(tasks)) }

// create makes a session on exactly the node at base and returns its id.
func create(t *testing.T, base string) string {
	t.Helper()
	st, body := do(http.MethodPost, base+"/v1/sessions", createBody)
	check(t, st == http.StatusCreated, "create on %s: HTTP %d %s", base, st, body)
	return decode[client.SessionInfo](t, body).ID
}

// do sends one request; status 0 means the node was unreachable.
func do(method, url, body string) (int, []byte) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		defer resp.Body.Close()
		if b, err := io.ReadAll(resp.Body); err == nil {
			return resp.StatusCode, b
		}
	}
	return 0, nil
}

// traced GETs url as part of trace traceID.
func traced(t *testing.T, url, traceID string) http.Header {
	t.Helper()
	req := must(http.NewRequest(http.MethodGet, url, nil))(t)
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp := must(http.DefaultClient.Do(req))(t)
	resp.Body.Close()
	return resp.Header
}

var hexStart = regexp.MustCompile(`^[0-9a-f]`)

// health is the part of /healthz the harness reads.
type health struct {
	Leases  *struct{ Held int }
	Cluster struct {
		PeersAlive int `json:"peers_alive"`
	}
}

func healthz(t *testing.T, base string) health {
	t.Helper()
	st, body := do(http.MethodGet, base+"/healthz", "")
	check(t, st == http.StatusOK, "GET %s/healthz: HTTP %d", base, st)
	return decode[health](t, body)
}

func decode[V any](t *testing.T, body []byte) (v V) {
	t.Helper()
	check(t, json.Unmarshal(body, &v) == nil, "not a JSON %T: %s", v, body)
	return v
}

// metrics scrapes base's /metrics into series → value, each name without
// its crowdfusion_ prefix; an absent series reads 0.
func metrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	st, body := do(http.MethodGet, base+"/metrics", "")
	check(t, st == http.StatusOK, "GET %s/metrics: HTTP %d", base, st)
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				m[strings.TrimPrefix(line[:i], "crowdfusion_")] = v
			}
		}
	}
	return m
}

// wantMetrics waits until base reports exact's values and positive > 0.
func wantMetrics(t *testing.T, base string, exact map[string]float64, positive ...string) {
	t.Helper()
	eventually(t, base+" metrics", func() error {
		m := metrics(t, base)
		for name, v := range exact {
			if m[name] != v {
				return fmt.Errorf("%s = %v, want %v", name, m[name], v)
			}
		}
		for _, name := range positive {
			if m[name] <= 0 {
				return fmt.Errorf("%s = %v, want > 0", name, m[name])
			}
		}
		return nil
	})
}

// freeAddrs has the OS pick n loopback ports for nodes that must know
// each other's addresses before they start.
func freeAddrs(t *testing.T, n int) (addrs []string) {
	for range n {
		ln := must(net.Listen("tcp", "127.0.0.1:0"))(t)
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

// eventually polls cond until it returns nil or patience runs out.
func eventually(t *testing.T, what string, cond func() error) {
	t.Helper()
	for deadline := time.Now().Add(patience); ; time.Sleep(20 * time.Millisecond) {
		err := cond()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

func check(t *testing.T, ok bool, format string, args ...any) {
	t.Helper()
	if !ok {
		t.Fatalf(format, args...)
	}
}

// must unwraps a (value, error) pair, failing the test on the error.
func must[V any](v V, err error) func(*testing.T) V {
	return func(t *testing.T) V {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
