package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer spins up the full handler stack on httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := NewServer(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// doJSON issues a request and decodes the JSON response.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			if err := json.Unmarshal(data, out); err != nil {
				t.Fatalf("decoding %s %s response %q: %v", method, url, data, err)
			}
		}
	}
	return resp.StatusCode
}

func TestServerSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var info SessionInfo
	status := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)
	if status != http.StatusCreated {
		t.Fatalf("create status %d", status)
	}
	if info.ID == "" || info.N != 4 || info.Done {
		t.Fatalf("create info %+v", info)
	}

	var sel SelectResponse
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel); s != http.StatusOK {
		t.Fatalf("select status %d", s)
	}
	if len(sel.Tasks) != 2 || sel.Version != 0 {
		t.Fatalf("select %+v", sel)
	}

	// Repeat select: same batch from cache.
	var sel2 SelectResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel2)
	if !sel2.Cached || fmt.Sprint(sel2.Tasks) != fmt.Sprint(sel.Tasks) {
		t.Fatalf("repeat select not cached: %+v vs %+v", sel2, sel)
	}

	answers := make([]bool, len(sel.Tasks))
	for i := range answers {
		answers[i] = true
	}
	var merged AnswersResponse
	req := AnswersRequest{Tasks: sel.Tasks, Answers: answers, Version: &sel.Version}
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/answers", req, &merged); s != http.StatusOK {
		t.Fatalf("answers status %d", s)
	}
	if !merged.Merged || merged.Version != 1 || merged.Spent != 2 {
		t.Fatalf("merge %+v", merged.SessionInfo)
	}

	// Idempotent retry over HTTP.
	var replay AnswersResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/answers", req, &replay)
	if replay.Merged || replay.Spent != 2 {
		t.Fatalf("replay %+v", replay.SessionInfo)
	}

	// GET with trace.
	var got SessionInfo
	if s := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+info.ID+"?rounds=true", nil, &got); s != http.StatusOK {
		t.Fatalf("get status %d", s)
	}
	if got.Version != 1 || len(got.Rounds) != 1 || got.Rounds[0].CumCost != 2 {
		t.Fatalf("get %+v", got)
	}
	if got.Entropy >= info.Entropy {
		t.Fatalf("entropy did not drop after consistent answers: %v -> %v", info.Entropy, got.Entropy)
	}

	// DELETE, then 404.
	if s := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil, nil); s != http.StatusNoContent {
		t.Fatalf("delete status %d", s)
	}
	var errResp ErrorResponse
	if s := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+info.ID, nil, &errResp); s != http.StatusNotFound {
		t.Fatalf("get after delete status %d", s)
	}
	if errResp.Error == "" {
		t.Fatal("404 without error envelope")
	}
}

func TestServerErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var errResp ErrorResponse
	// Invalid create: 400.
	bad := testCreateReq()
	bad.Pc = 0.2
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", bad, &errResp); s != http.StatusBadRequest {
		t.Fatalf("invalid create status %d", s)
	}
	// Unknown fields and trailing data: 400 (strict decoding at the trust
	// boundary). Trailing white space is not data.
	const valid = `{"marginals":[0.5],"pc":0.8,"k":1,"budget":2}`
	for body, want := range map[string]int{
		`{"marginals":[0.5],"pc":0.8,"k":1,"budget":2,"bogus":1}`: http.StatusBadRequest,
		valid + ` garbage`: http.StatusBadRequest,
		valid + valid:      http.StatusBadRequest,
		valid + " \n":      http.StatusCreated,
	} {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("create %q: status %d, want %d", body, resp.StatusCode, want)
		}
	}
	// Unknown session: 404 on every per-session route.
	for _, r := range []struct{ method, path string }{
		{http.MethodGet, "/v1/sessions/deadbeef"},
		{http.MethodPost, "/v1/sessions/deadbeef/select"},
		{http.MethodDelete, "/v1/sessions/deadbeef"},
	} {
		if s := doJSON(t, r.method, ts.URL+r.path, nil, nil); s != http.StatusNotFound {
			t.Fatalf("%s %s status %d, want 404", r.method, r.path, s)
		}
	}
	var m AnswersResponse
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/deadbeef/answers",
		AnswersRequest{Tasks: []int{0}, Answers: []bool{true}}, &m); s != http.StatusNotFound {
		t.Fatalf("answers on unknown session status %d", s)
	}

	// Stale version: 409.
	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)
	var sel SelectResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/answers",
		AnswersRequest{Tasks: sel.Tasks, Answers: make([]bool, len(sel.Tasks)), Version: &sel.Version}, nil)
	stale := 0
	ans := make([]bool, len(sel.Tasks))
	ans[0] = true
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/answers",
		AnswersRequest{Tasks: sel.Tasks, Answers: ans, Version: &stale}, &errResp); s != http.StatusConflict {
		t.Fatalf("stale merge status %d (%s)", s, errResp.Error)
	}
}

func TestServerHealthzAndMetrics(t *testing.T) {
	svc, ts := newTestServer(t, Config{})

	var health struct {
		Status       string `json:"status"`
		SessionsLive int    `json:"sessions_live"`
	}
	if s := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); s != http.StatusOK {
		t.Fatalf("healthz status %d", s)
	}
	if health.Status != "ok" {
		t.Fatalf("healthz %+v", health)
	}

	// Generate some traffic, then scrape.
	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)
	var sel SelectResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, nil) // cache hit
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/answers",
		AnswersRequest{Tasks: sel.Tasks, Answers: make([]bool, len(sel.Tasks)), Version: &sel.Version}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"crowdfusion_sessions_live 1",
		"crowdfusion_sessions_created_total 1",
		"crowdfusion_selects_served_total 2",
		"crowdfusion_select_cache_hits_total 1",
		"crowdfusion_merges_applied_total 1",
		"crowdfusion_select_batch_width_count 1", // the uncached select only
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	if svc.Metrics().SelectsServed.Load() != 2 {
		t.Fatalf("selects served counter %d", svc.Metrics().SelectsServed.Load())
	}
}

// TestServerAccessLogSkipsHealthz: at INFO the access log carries the
// request lines and not the liveness probes peers send every heartbeat.
func TestServerAccessLogSkipsHealthz(t *testing.T) {
	logBuf := &lockedBuffer{}
	_, ts := newTestServer(t, Config{Logger: slog.New(slog.NewTextHandler(logBuf, &slog.HandlerOptions{Level: slog.LevelInfo}))})
	for i := 0; i < 3; i++ {
		if s := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &struct{}{}); s != http.StatusOK {
			t.Fatalf("healthz status %d", s)
		}
	}
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &struct{}{}); s != http.StatusCreated {
		t.Fatalf("create status %d", s)
	}
	// The middleware logs after the response is written: wait for the line.
	var logs string
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(logs, "path=/v1/sessions "); logs = logBuf.String() {
		if time.Now().After(deadline) {
			t.Fatalf("no access-log line for POST /v1/sessions in:\n%s", logs)
		}
		time.Sleep(time.Millisecond)
	}
	if strings.Contains(logs, "path=/healthz") {
		t.Errorf("access log at INFO carries GET /healthz:\n%s", logs)
	}
}

func TestServerBackpressure(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueTimeout: time.Millisecond})

	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)

	// Hold the single compute slot, then watch a select get shed.
	svc.gate <- struct{}{}
	var errResp ErrorResponse
	status := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &errResp)
	<-svc.gate
	if status != http.StatusServiceUnavailable {
		t.Fatalf("saturated select status %d", status)
	}
	if svc.Metrics().RequestsRejected.Load() != 1 {
		t.Fatalf("rejected counter %d", svc.Metrics().RequestsRejected.Load())
	}
	// Slot released: the same request now succeeds.
	var sel SelectResponse
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel); s != http.StatusOK {
		t.Fatalf("post-release select status %d", s)
	}
}

// TestServerConcurrentSessionNeverInterleavesMerges is the acceptance
// concurrency test: many goroutines race select/answers/get against ONE
// session. The per-session state machine must serialize merges — no lost
// updates, no double-spent budget, version == applied merges — and the
// race detector must stay quiet.
func TestServerConcurrentSessionNeverInterleavesMerges(t *testing.T) {
	svc, ts := newTestServer(t, Config{})

	req := testCreateReq()
	req.Budget = 20
	req.K = 2
	var info SessionInfo
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", req, &info); s != http.StatusCreated {
		t.Fatalf("create status %d", s)
	}

	const workers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	applied := 0 // answer sets this test saw merge (Merged=true)
	spentByUs := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var sel SelectResponse
				s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel)
				if s != http.StatusOK {
					t.Errorf("worker %d: select status %d", w, s)
					return
				}
				if sel.Done || len(sel.Tasks) == 0 {
					return
				}
				answers := make([]bool, len(sel.Tasks))
				for j, f := range sel.Tasks {
					answers[j] = f%2 == 0
				}
				var merged AnswersResponse
				s = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/answers",
					AnswersRequest{Tasks: sel.Tasks, Answers: answers, Version: &sel.Version}, &merged)
				switch s {
				case http.StatusOK:
					if merged.Merged {
						mu.Lock()
						applied++
						spentByUs += len(sel.Tasks)
						mu.Unlock()
					}
				case http.StatusConflict:
					// Lost the race to another worker's merge: re-select.
				default:
					t.Errorf("worker %d: answers status %d", w, s)
					return
				}
				// Interleave reads with the writes.
				doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+info.ID, nil, nil)
			}
		}(w)
	}
	wg.Wait()

	var final SessionInfo
	if s := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+info.ID+"?rounds=1", nil, &final); s != http.StatusOK {
		t.Fatalf("final get status %d", s)
	}
	if final.Spent > final.Budget {
		t.Fatalf("budget overspent: %d > %d", final.Spent, final.Budget)
	}
	if final.Version != len(final.Rounds) {
		t.Fatalf("version %d != %d recorded rounds", final.Version, len(final.Rounds))
	}
	if final.Version != applied {
		t.Fatalf("service applied %d merges, test observed %d", final.Version, applied)
	}
	if final.Spent != spentByUs {
		t.Fatalf("spent %d != %d tasks in observed merges", final.Spent, spentByUs)
	}
	sum := 0
	for i, r := range final.Rounds {
		sum += len(r.Tasks)
		if r.CumCost != sum {
			t.Fatalf("round %d cum_cost %d != running sum %d — merges interleaved", i, r.CumCost, sum)
		}
	}
	if sum != final.Spent {
		t.Fatalf("rounds account %d tasks, spent %d", sum, final.Spent)
	}
	if int64(applied) != svc.Metrics().MergesApplied.Load() {
		t.Fatalf("metrics merges %d != observed %d", svc.Metrics().MergesApplied.Load(), applied)
	}
	// The posterior must still be a valid distribution after the storm.
	sess, err := svc.Manager().Get(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Posterior().Validate(); err != nil {
		t.Fatalf("posterior corrupted: %v", err)
	}
}

func TestServerGracefulCloseDrains(t *testing.T) {
	svc := NewServer(Config{})
	ts := httptest.NewServer(svc.Handler())

	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)
	var sel SelectResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel)

	// Start a merge and close concurrently: Close must wait for it.
	done := make(chan AnswersResponse, 1)
	go func() {
		var m AnswersResponse
		doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/answers",
			AnswersRequest{Tasks: sel.Tasks, Answers: make([]bool, len(sel.Tasks)), Version: &sel.Version}, &m)
		done <- m
	}()
	m := <-done
	ts.Close()
	svc.Close()
	if !m.Merged {
		t.Fatalf("merge lost across shutdown: %+v", m.SessionInfo)
	}
	// Close is idempotent.
	svc.Close()
}

// TestServerRefusesWorkAfterClose: compute endpoints arriving once Close
// has begun are refused with 503 instead of registering new work behind
// the drain.
func TestServerRefusesWorkAfterClose(t *testing.T) {
	svc := NewServer(Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)
	svc.Close()

	var errResp ErrorResponse
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &errResp); s != http.StatusServiceUnavailable {
		t.Fatalf("create after close status %d", s)
	}
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &errResp); s != http.StatusServiceUnavailable {
		t.Fatalf("select after close status %d", s)
	}
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/answers",
		AnswersRequest{Tasks: []int{0}, Answers: []bool{true}}, &errResp); s != http.StatusServiceUnavailable {
		t.Fatalf("answers after close status %d", s)
	}
	if !strings.Contains(errResp.Error, "shutting down") {
		t.Fatalf("refusal message %q", errResp.Error)
	}
	// Reads still work during drain (operators polling state).
	if s := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+info.ID, nil, nil); s != http.StatusOK {
		t.Fatalf("get after close status %d", s)
	}
}
