package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// answersFor fabricates a deterministic judgment per task (true for even
// task indices) so incremental and batched twins see identical inputs.
func answersFor(tasks []int) []bool {
	out := make([]bool, len(tasks))
	for i, task := range tasks {
		out[i] = task%2 == 0
	}
	return out
}

// submitOne posts a single-task partial answer in-process.
func submitOne(t *testing.T, s *Session, now time.Time, task int, answer bool, version int) *AnswersResponse {
	t.Helper()
	resp, err := s.Merge(context.Background(), now, &AnswersRequest{
		Tasks: []int{task}, Answers: []bool{answer}, Version: &version, Partial: true,
	})
	if err != nil {
		t.Fatalf("partial answer task %d: %v", task, err)
	}
	return resp
}

// TestPartialSequenceMatchesBatchedMerge is the in-process differential
// test: a session answered one judgment at a time — with a retried prefix
// in the middle — must land on a posterior bit-identical to a twin session
// that merged the same batch at once, with budget spent exactly once.
func TestPartialSequenceMatchesBatchedMerge(t *testing.T) {
	m := NewManager(ManagerConfig{})
	defer m.Close()
	now := m.Now()

	inc, err := m.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := m.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	selInc, _, err := inc.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	selBatch, _, err := batch.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(selInc.Tasks, selBatch.Tasks) {
		t.Fatalf("twin sessions selected different batches: %v vs %v", selInc.Tasks, selBatch.Tasks)
	}
	tasks := selInc.Tasks
	if len(tasks) < 2 {
		t.Fatalf("need a multi-task batch, got %v", tasks)
	}
	answers := answersFor(tasks)

	// Incremental: first judgment, then a verbatim retry of it (a client
	// resending after a lost response), then the rest one at a time.
	r := submitOne(t, inc, now, tasks[0], answers[0], 0)
	if r.Merged || !r.Partial {
		t.Fatalf("first partial: merged=%v partial=%v", r.Merged, r.Partial)
	}
	if r.Spent != 0 || r.Version != 0 {
		t.Fatalf("partial moved committed state: spent=%d version=%d", r.Spent, r.Version)
	}
	if r.Pending == nil || len(r.Pending.Answered) != 1 || len(r.Pending.Remaining) != len(tasks)-1 {
		t.Fatalf("pending after first partial: %+v", r.Pending)
	}
	retry := submitOne(t, inc, now, tasks[0], answers[0], 0)
	if retry.Merged || !retry.Partial {
		t.Fatalf("retried prefix: merged=%v partial=%v", retry.Merged, retry.Partial)
	}
	if len(retry.Pending.Answered) != 1 {
		t.Fatalf("retry double-recorded the judgment: %+v", retry.Pending)
	}
	var last *AnswersResponse
	for i := 1; i < len(tasks); i++ {
		last = submitOne(t, inc, now, tasks[i], answers[i], 0)
	}
	if !last.Merged || !last.Partial {
		t.Fatalf("completing judgment should commit: merged=%v partial=%v", last.Merged, last.Partial)
	}
	if last.Pending != nil {
		t.Fatalf("pending survived the commit: %+v", last.Pending)
	}

	// Batched twin.
	ver := 0
	bresp, err := batch.Merge(context.Background(), now, &AnswersRequest{Tasks: tasks, Answers: answers, Version: &ver})
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical, not approximately equal.
	ib, bb := fingerprint(inc, now), fingerprint(batch, now)
	ib.info.ID, bb.info.ID = "", ""
	requireIdentical(t, ib, bb)
	if last.Spent != len(tasks) || bresp.Spent != len(tasks) {
		t.Fatalf("budget spent inc=%d batch=%d, want %d once", last.Spent, bresp.Spent, len(tasks))
	}
	if last.Version != 1 {
		t.Fatalf("commit version %d, want 1", last.Version)
	}

	// A replay of the completing judgment after commit must be the round
	// replay, not a new ledger.
	post := submitOne(t, inc, now, tasks[len(tasks)-1], answers[len(tasks)-1], 0)
	if post.Merged || !post.Partial || post.Spent != len(tasks) {
		t.Fatalf("post-commit replay: %+v", post)
	}
}

// TestPartialValidation covers the new failure modes: no pending batch,
// foreign task, contradictory judgment.
func TestPartialValidation(t *testing.T) {
	m := NewManager(ManagerConfig{})
	defer m.Close()
	now := m.Now()
	s, err := m.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	ver := 0
	if _, err := s.Merge(context.Background(), now, &AnswersRequest{Tasks: []int{0}, Answers: []bool{true}, Version: &ver, Partial: true}); !errorsIs(err, ErrNoPendingBatch) {
		t.Fatalf("partial without a selection: %v", err)
	}
	sel, _, err := s.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	outside := -1
	for _, cand := range []int{0, 1, 2, 3} {
		seen := false
		for _, task := range sel.Tasks {
			if task == cand {
				seen = true
			}
		}
		if !seen {
			outside = cand
			break
		}
	}
	if _, err := s.Merge(context.Background(), now, &AnswersRequest{Tasks: []int{outside}, Answers: []bool{true}, Version: &ver, Partial: true}); !errorsIs(err, ErrNotInBatch) {
		t.Fatalf("foreign task: %v", err)
	}
	if _, err := s.Merge(context.Background(), now, &AnswersRequest{Tasks: []int{sel.Tasks[0], sel.Tasks[0]}, Answers: []bool{true, false}, Version: &ver, Partial: true}); !errorsIs(err, ErrAnswerConflict) {
		t.Fatalf("contradiction within request: %v", err)
	}
	if _, err := s.Merge(context.Background(), now, &AnswersRequest{Tasks: []int{sel.Tasks[0]}, Answers: []bool{true}, Version: &ver, Partial: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge(context.Background(), now, &AnswersRequest{Tasks: []int{sel.Tasks[0]}, Answers: []bool{false}, Version: &ver, Partial: true}); !errorsIs(err, ErrAnswerConflict) {
		t.Fatalf("contradiction with ledger: %v", err)
	}
	// While a ledger is active, select returns the pinned batch.
	again, cached, err := s.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || !reflect.DeepEqual(again.Tasks, sel.Tasks) {
		t.Fatalf("select during ledger: cached=%v tasks=%v want %v", cached, again.Tasks, sel.Tasks)
	}
	future := 5
	if _, err := s.Merge(context.Background(), now, &AnswersRequest{Tasks: []int{sel.Tasks[0]}, Answers: []bool{true}, Version: &future, Partial: true}); !errorsIs(err, ErrVersionConflict) {
		t.Fatalf("future version: %v", err)
	}
}

func errorsIs(err, target error) bool { return errors.Is(err, target) }

// TestPartialSequenceSurvivesCrashMidLedger drives the differential test
// across a simulated SIGKILL: judgments land one at a time, the process
// dies with the ledger half full (nothing flushed — the manager is
// abandoned, not closed), and a fresh manager over the same directory must
// replay to the same provisional state, accept the remaining judgments,
// and commit bit-identically to a batched twin.
func TestPartialSequenceSurvivesCrashMidLedger(t *testing.T) {
	dir := t.TempDir()
	m1 := newFileManager(t, dir, ManagerConfig{})
	now := m1.Now()
	s1, err := m1.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	id := s1.ID()
	sel, _, err := s1.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	tasks := sel.Tasks
	answers := answersFor(tasks)
	half := len(tasks) / 2
	if half == 0 {
		half = 1
	}
	for i := 0; i < half; i++ {
		submitOne(t, s1, now, tasks[i], answers[i], 0)
	}
	mid := fingerprint(s1, now)
	// SIGKILL analogue: abandon m1 without Close. Acknowledged partials
	// were fsynced before their responses, so nothing else may be needed.

	m2 := newFileManager(t, dir, ManagerConfig{})
	defer m2.Close()
	s2, err := m2.Get(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, fingerprint(s2, m2.Now()), mid)
	info := s2.Info(m2.Now(), false)
	if info.Pending == nil || len(info.Pending.Answered) != half {
		t.Fatalf("recovered pending %+v, want %d answered", info.Pending, half)
	}
	// Retry an already-journaled judgment across the crash, then finish.
	submitOne(t, s2, m2.Now(), tasks[0], answers[0], 0)
	var last *AnswersResponse
	for i := half; i < len(tasks); i++ {
		last = submitOne(t, s2, m2.Now(), tasks[i], answers[i], 0)
	}
	if !last.Merged {
		t.Fatalf("completing judgment after recovery did not commit: %+v", last)
	}
	if last.Spent != len(tasks) {
		t.Fatalf("budget after crash-recovery commit: %d, want %d", last.Spent, len(tasks))
	}

	// Batched twin in a separate directory.
	m3 := newFileManager(t, t.TempDir(), ManagerConfig{})
	defer m3.Close()
	s3, err := m3.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	sel3, _, err := s3.Select(context.Background(), m3.Now(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel3.Tasks, tasks) {
		t.Fatalf("twin selected %v, want %v", sel3.Tasks, tasks)
	}
	ver := 0
	if _, err := s3.Merge(context.Background(), m3.Now(), &AnswersRequest{Tasks: tasks, Answers: answers, Version: &ver}); err != nil {
		t.Fatal(err)
	}
	got, want := fingerprint(s2, now), fingerprint(s3, now)
	got.info.ID, want.info.ID = "", ""
	requireIdentical(t, got, want)

	// A retry of the whole committed batch replays from the idempotency
	// log and reports partial exactly as the retry itself asked, on the
	// live instance and after a restart alike.
	retryCommitted := func(s *Session) {
		t.Helper()
		for _, partial := range []bool{true, false} {
			resp, err := s.Merge(context.Background(), now, &AnswersRequest{
				Tasks: tasks, Answers: answers, Version: &ver, Partial: partial})
			if err != nil || resp.Merged || resp.Partial != partial || resp.Spent != len(tasks) {
				t.Fatalf("retry of the committed batch (partial=%v): %+v, %v", partial, resp, err)
			}
		}
	}
	retryCommitted(s2)

	// And the committed state must itself survive another restart.
	m4 := newFileManager(t, dir, ManagerConfig{})
	defer m4.Close()
	s4, err := m4.Get(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	got4 := fingerprint(s4, now)
	got4.info.ID = ""
	requireIdentical(t, got4, want)
	retryCommitted(s4)
}

// TestPartialSequenceOverHTTP runs the differential flow through the full
// handler stack: partials with a retried prefix over HTTP must match a
// batched twin bit-for-bit (JSON round-trips float64 exactly).
func TestPartialSequenceOverHTTP(t *testing.T) {
	svc, ts := newTestServer(t, Config{})

	var inc, batch SessionInfo
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &inc); s != http.StatusCreated {
		t.Fatalf("create status %d", s)
	}
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &batch); s != http.StatusCreated {
		t.Fatalf("create status %d", s)
	}
	var selInc, selBatch SelectResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+inc.ID+"/select", nil, &selInc)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+batch.ID+"/select", nil, &selBatch)
	if !reflect.DeepEqual(selInc.Tasks, selBatch.Tasks) {
		t.Fatalf("twins selected %v vs %v", selInc.Tasks, selBatch.Tasks)
	}
	tasks := selInc.Tasks
	answers := answersFor(tasks)
	ver := 0

	post := func(id string, req AnswersRequest) (AnswersResponse, int) {
		var resp AnswersResponse
		status := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/answers", &req, &resp)
		return resp, status
	}
	single := func(i int) AnswersRequest {
		return AnswersRequest{Tasks: []int{tasks[i]}, Answers: []bool{answers[i]}, Version: &ver, Partial: true}
	}
	if resp, status := post(inc.ID, single(0)); status != http.StatusOK || resp.Merged || !resp.Partial {
		t.Fatalf("first partial: status %d resp %+v", status, resp)
	}
	if resp, status := post(inc.ID, single(0)); status != http.StatusOK || resp.Merged || len(resp.Pending.Answered) != 1 {
		t.Fatalf("retried prefix: status %d resp %+v", status, resp)
	}
	var last AnswersResponse
	for i := 1; i < len(tasks); i++ {
		var status int
		if last, status = post(inc.ID, single(i)); status != http.StatusOK {
			t.Fatalf("partial %d status %d", i, status)
		}
	}
	if !last.Merged || last.Spent != len(tasks) || last.Version != 1 {
		t.Fatalf("commit over HTTP: %+v", last)
	}
	bresp, status := post(batch.ID, AnswersRequest{Tasks: tasks, Answers: answers, Version: &ver})
	if status != http.StatusOK || !bresp.Merged {
		t.Fatalf("batched merge: status %d resp %+v", status, bresp)
	}
	if !reflect.DeepEqual(last.Marginals, bresp.Marginals) || last.Entropy != bresp.Entropy ||
		last.SupportSize != bresp.SupportSize || last.Spent != bresp.Spent {
		t.Fatalf("incremental and batched posteriors diverged over HTTP:\n inc  %+v\n batch %+v", last.SessionInfo, bresp.SessionInfo)
	}
	// One commit, len(tasks) accepted partials (retry replays don't count).
	if got := svc.Metrics().MergesApplied.Load(); got != 2 {
		t.Fatalf("merges applied %d, want 2", got)
	}
	if got := svc.Metrics().PartialAnswers.Load(); got != int64(len(tasks)+1) {
		t.Fatalf("partial answers %d, want %d", got, len(tasks)+1)
	}
}

// sseConn is a hand-rolled SSE consumer over the httptest server.
type sseConn struct {
	resp   *http.Response
	rd     *bufio.Reader
	cancel context.CancelFunc
}

func dialSSE(t *testing.T, url, lastID string) *sseConn {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	return &sseConn{resp: resp, rd: bufio.NewReader(resp.Body), cancel: cancel}
}

func (c *sseConn) close() {
	c.cancel()
	c.resp.Body.Close()
}

type sseFrame struct {
	id    string
	event string
	data  string
}

// next reads one SSE frame, skipping keepalive comments.
func (c *sseConn) next(t *testing.T) sseFrame {
	t.Helper()
	deadline := time.After(5 * time.Second)
	frames := make(chan any, 1)
	go func() {
		var f sseFrame
		for {
			line, err := c.rd.ReadString('\n')
			if err != nil {
				frames <- err
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case line == "":
				if f.event == "" && f.data == "" {
					continue
				}
				frames <- f
				return
			case strings.HasPrefix(line, ":"):
			case strings.HasPrefix(line, "id: "):
				f.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data += strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	select {
	case v := <-frames:
		if err, ok := v.(error); ok {
			t.Fatalf("reading event stream: %v", err)
		}
		return v.(sseFrame)
	case <-deadline:
		t.Fatal("timed out waiting for an event frame")
	}
	panic("unreachable")
}

// TestEventStreamDeliversEveryTransitionInOrder subscribes before any
// activity and asserts the stream carries snapshot → select → partial* →
// merge → … → done, each exactly once, with contiguous sequence numbers.
func TestEventStreamDeliversEveryTransitionInOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)

	conn := dialSSE(t, ts.URL+"/v1/sessions/"+info.ID+"/events", "")
	defer conn.close()
	snap := conn.next(t)
	if snap.event != EventSnapshot {
		t.Fatalf("first frame %q, want snapshot", snap.event)
	}

	ver := 0
	var sel SelectResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel)
	tasks := sel.Tasks
	answers := answersFor(tasks)
	for i := range tasks {
		var resp AnswersResponse
		req := AnswersRequest{Tasks: []int{tasks[i]}, Answers: []bool{answers[i]}, Version: &ver, Partial: true}
		doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/answers", &req, &resp)
	}

	want := []string{EventSelect}
	for i := 0; i < len(tasks)-1; i++ {
		want = append(want, EventPartial)
	}
	want = append(want, EventMerge)
	lastSeq := uint64(0)
	for i, wantType := range want {
		f := conn.next(t)
		if f.event != wantType {
			t.Fatalf("frame %d: event %q, want %q", i, f.event, wantType)
		}
		var seq uint64
		if _, err := fmt.Sscanf(f.id, "%d", &seq); err != nil {
			t.Fatalf("frame %d id %q: %v", i, f.id, err)
		}
		if seq != lastSeq+1 {
			t.Fatalf("frame %d: seq %d after %d — gap or duplicate", i, seq, lastSeq)
		}
		lastSeq = seq
		var ev SessionEvent
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame %d data %q: %v", i, f.data, err)
		}
		switch wantType {
		case EventSelect:
			if !reflect.DeepEqual(ev.Tasks, tasks) || ev.Version != 0 {
				t.Fatalf("select event %+v, want tasks %v", ev, tasks)
			}
		case EventPartial:
			if ev.Version != 0 || ev.Pending == nil {
				t.Fatalf("partial event carries no pending state: %+v", ev)
			}
		case EventMerge:
			if ev.Version != 1 || ev.Spent != len(tasks) || ev.Pending != nil {
				t.Fatalf("merge event %+v, want version 1 spent %d", ev, len(tasks))
			}
		}
	}
}

// TestEventStreamResumesWithLastEventID kills a subscriber mid-round,
// advances the session, reconnects with Last-Event-ID, and requires
// exactly the missed transitions — no duplicates, no gaps.
func TestEventStreamResumesWithLastEventID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)

	conn := dialSSE(t, ts.URL+"/v1/sessions/"+info.ID+"/events", "")
	if f := conn.next(t); f.event != EventSnapshot {
		t.Fatalf("first frame %q", f.event)
	}
	ver := 0
	var sel SelectResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel)
	tasks := sel.Tasks
	answers := answersFor(tasks)
	selFrame := conn.next(t)
	if selFrame.event != EventSelect {
		t.Fatalf("frame %q, want select", selFrame.event)
	}
	// Kill the stream, then advance the session while nobody watches.
	conn.close()
	for i := range tasks {
		var resp AnswersResponse
		req := AnswersRequest{Tasks: []int{tasks[i]}, Answers: []bool{answers[i]}, Version: &ver, Partial: true}
		doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/answers", &req, &resp)
	}

	// Reconnect from the select frame: expect the partials and the merge,
	// nothing else, in order.
	conn2 := dialSSE(t, ts.URL+"/v1/sessions/"+info.ID+"/events", selFrame.id)
	defer conn2.close()
	want := make([]string, 0, len(tasks))
	for i := 0; i < len(tasks)-1; i++ {
		want = append(want, EventPartial)
	}
	want = append(want, EventMerge)
	var prev uint64
	fmt.Sscanf(selFrame.id, "%d", &prev)
	for i, wantType := range want {
		f := conn2.next(t)
		if f.event != wantType {
			t.Fatalf("resumed frame %d: %q, want %q", i, f.event, wantType)
		}
		var seq uint64
		fmt.Sscanf(f.id, "%d", &seq)
		if seq != prev+1 {
			t.Fatalf("resumed frame %d: seq %d after %d", i, seq, prev)
		}
		prev = seq
	}

	// A resume point outside the ring (or unknown) degrades to a snapshot.
	conn3 := dialSSE(t, ts.URL+"/v1/sessions/"+info.ID+"/events", "999999")
	defer conn3.close()
	if f := conn3.next(t); f.event != EventSnapshot {
		t.Fatalf("out-of-window resume opened with %q, want snapshot", f.event)
	}
}

// smallBufListener shrinks each accepted connection's kernel send buffer
// so a stalled reader back-pressures the SSE handler after a few KB
// instead of a few MB.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(512)
	}
	return c, nil
}

// TestSlowSubscriberIsDroppedNotWaitedOn wedges a subscriber (tiny socket
// buffers on both ends, reader stalled after the snapshot) while a
// long-budget session streams hundreds of transitions, and requires
// (a) merges keep acking promptly, (b) the subscriber is dropped and the
// drop is visible in metrics, (c) the stream ends with a reset frame once
// the reader resumes.
func TestSlowSubscriberIsDroppedNotWaitedOn(t *testing.T) {
	svc := NewServer(Config{})
	ts := httptest.NewUnstartedServer(svc.Handler())
	ts.Listener = smallBufListener{ts.Listener}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	svc.Manager().events.subBuf = 2

	// One fact stays maximally uncertain when its answers flip-flop, so a
	// k=1 big-budget session yields ~2 events per round indefinitely.
	var info SessionInfo
	create := &CreateSessionRequest{Marginals: []float64{0.5, 0.6, 0.55, 0.52}, Pc: 0.8, K: 1, Budget: 400}
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", create, &info); s != http.StatusCreated {
		t.Fatalf("create status %d", s)
	}

	// Raw TCP subscriber with a tiny receive buffer that stops reading
	// after the headers: in-flight capacity is a few KB total.
	raw, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if tc, ok := raw.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(512)
	}
	fmt.Fprintf(raw, "GET /v1/sessions/%s/events HTTP/1.1\r\nHost: test\r\nAccept: text/event-stream\r\n\r\n", info.ID)
	br := bufio.NewReaderSize(raw, 256)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	// Stall: no reads from resp.Body until after the drop.

	ver := 0
	dropped := false
	for round := 0; round < 200 && !dropped; round++ {
		var sel SelectResponse
		doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel)
		if sel.Done || len(sel.Tasks) == 0 {
			break
		}
		answers := make([]bool, len(sel.Tasks))
		for i := range answers {
			answers[i] = round%2 == 0 // flip-flop keeps entropy high
		}
		var mresp AnswersResponse
		req := AnswersRequest{Tasks: sel.Tasks, Answers: answers, Version: &ver}
		start := time.Now()
		if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/answers", &req, &mresp); s != http.StatusOK {
			t.Fatalf("round %d merge status %d", round, s)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("merge ack took %v with a wedged subscriber", d)
		}
		ver = mresp.Version
		dropped = svc.Metrics().SubscribersDropped.Load() > 0
	}
	if !dropped {
		t.Fatal("wedged subscriber was never dropped")
	}
	if svc.Metrics().EventsDropped.Load() == 0 {
		t.Fatal("drop left no event-loss mark in metrics")
	}
	// Resume reading: buffered frames drain, then the reset goodbye, then
	// the stream ends.
	sse := &sseConn{resp: resp, rd: bufio.NewReader(resp.Body), cancel: func() { raw.Close() }}
	for {
		f := sse.next(t)
		if f.event == EventReset {
			break
		}
	}
}

// TestConcurrentPartialsAndSubscribers races single-judgment submitters
// against churning subscribers under -race: every round's judgments arrive
// concurrently from separate goroutines while watchers attach and drain.
func TestConcurrentPartialsAndSubscribers(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)

	stop := make(chan struct{})
	var watchers sync.WaitGroup
	for w := 0; w < 4; w++ {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := svc.Manager().Subscribe(context.Background(), info.ID, 0, false)
				if err != nil {
					continue
				}
				for drained := false; !drained; {
					select {
					case <-sub.ch:
					case <-sub.done:
						drained = true
					case <-stop:
						drained = true
					case <-time.After(20 * time.Millisecond):
						drained = true
					}
				}
				sub.cancel()
			}
		}()
	}

	ver := 0
	for round := 0; round < 6; round++ {
		var sel SelectResponse
		doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/select", nil, &sel)
		if sel.Done || len(sel.Tasks) == 0 {
			break
		}
		answers := answersFor(sel.Tasks)
		var wg sync.WaitGroup
		for i := range sel.Tasks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v := ver
				req := AnswersRequest{Tasks: []int{sel.Tasks[i]}, Answers: []bool{answers[i]}, Version: &v, Partial: true}
				var resp AnswersResponse
				doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/answers", &req, &resp)
			}(i)
		}
		wg.Wait()
		var after SessionInfo
		doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+info.ID, nil, &after)
		if after.Version != ver+1 {
			t.Fatalf("round %d: version %d after all judgments, want %d", round, after.Version, ver+1)
		}
		if after.Pending != nil {
			t.Fatalf("round %d left a dangling ledger: %+v", round, after.Pending)
		}
		ver = after.Version
	}
	close(stop)
	watchers.Wait()
}

// TestErrorEnvelopeOn404And405 checks the uniform machine-readable error
// envelope on routing misses.
func TestErrorEnvelopeOn404And405(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var er ErrorResponse
	if s := doJSON(t, http.MethodGet, ts.URL+"/v1/nope", nil, &er); s != http.StatusNotFound {
		t.Fatalf("unknown route status %d", s)
	}
	if er.Code != CodeNotFound || er.Error == "" {
		t.Fatalf("404 envelope %+v", er)
	}

	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/sessions/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT session status %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") || !strings.Contains(allow, "DELETE") {
		t.Fatalf("405 Allow %q", allow)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("405 content type %q", ct)
	}
	er = ErrorResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Code != CodeMethodNotAllowed {
		t.Fatalf("405 envelope %+v (%v)", er, err)
	}

	// The events path bypasses the timeout handler for GET; other methods
	// must still get a JSON 405 naming GET.
	er = ErrorResponse{}
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/events", nil, &er); s != http.StatusMethodNotAllowed {
		t.Fatalf("POST events status %d", s)
	}
	if er.Code != CodeMethodNotAllowed {
		t.Fatalf("POST events envelope %+v", er)
	}
}

// TestListSessionsEndpoint covers pagination order, the cursor, and limit
// validation.
func TestListSessionsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		var info SessionInfo
		doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)
		ids = append(ids, info.ID)
	}
	var page ListSessionsResponse
	if s := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions?limit=3", nil, &page); s != http.StatusOK {
		t.Fatalf("list status %d", s)
	}
	if len(page.Sessions) != 3 || page.NextAfter == "" {
		t.Fatalf("first page %+v", page)
	}
	for i := 1; i < len(page.Sessions); i++ {
		if page.Sessions[i].ID <= page.Sessions[i-1].ID {
			t.Fatalf("listing not ID-sorted: %+v", page.Sessions)
		}
	}
	var rest ListSessionsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/sessions?limit=3&after="+page.NextAfter, nil, &rest)
	if len(rest.Sessions) != 2 || rest.NextAfter != "" {
		t.Fatalf("second page %+v", rest)
	}
	seen := map[string]bool{}
	for _, row := range append(page.Sessions, rest.Sessions...) {
		if seen[row.ID] {
			t.Fatalf("duplicate row %s across pages", row.ID)
		}
		seen[row.ID] = true
		if row.Budget != 6 || row.Done {
			t.Fatalf("summary %+v", row)
		}
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("session %s missing from listing", id)
		}
	}
	var er ErrorResponse
	if s := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions?limit=0", nil, &er); s != http.StatusBadRequest {
		t.Fatalf("limit=0 status %d", s)
	}
}

// TestStreamsEndOnStopStreams covers the daemon's shutdown path: an open
// stream must end promptly when StopStreams fires, and new subscribers are
// refused.
func TestStreamsEndOnStopStreams(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)
	conn := dialSSE(t, ts.URL+"/v1/sessions/"+info.ID+"/events", "")
	defer conn.close()
	if f := conn.next(t); f.event != EventSnapshot {
		t.Fatalf("first frame %q", f.event)
	}
	done := make(chan struct{})
	go func() {
		// The stream must end (EOF) rather than hang.
		for {
			if _, err := conn.rd.ReadByte(); err != nil {
				close(done)
				return
			}
		}
	}()
	svc.StopStreams()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after StopStreams")
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("subscribe after StopStreams: %d", resp.StatusCode)
	}
}

// TestDeleteTerminatesStreamWithGoodbye: deleting a watched session must
// push a final deleted event before the stream closes.
func TestDeleteTerminatesStreamWithGoodbye(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)
	conn := dialSSE(t, ts.URL+"/v1/sessions/"+info.ID+"/events", "")
	defer conn.close()
	if f := conn.next(t); f.event != EventSnapshot {
		t.Fatalf("first frame %q", f.event)
	}
	if s := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil, nil); s != http.StatusNoContent {
		t.Fatalf("delete status %d", s)
	}
	if f := conn.next(t); f.event != EventDeleted {
		t.Fatalf("goodbye frame %q, want deleted", f.event)
	}
}

// TestSubscriberCap: the per-session subscriber cap answers 429 with the
// too_many_subscribers code.
func TestSubscriberCap(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxSubscribers: 2})
	_ = svc
	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", testCreateReq(), &info)
	a := dialSSE(t, ts.URL+"/v1/sessions/"+info.ID+"/events", "")
	defer a.close()
	b := dialSSE(t, ts.URL+"/v1/sessions/"+info.ID+"/events", "")
	defer b.close()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third subscriber status %d, want 429", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Code != CodeTooManySubscribers {
		t.Fatalf("cap envelope %+v (%v)", er, err)
	}
}
