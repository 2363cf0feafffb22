package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New("n1", nil)
	_, sp := tr.Start(context.Background(), "root")
	hdr := sp.Context().Traceparent()
	if len(hdr) != 55 {
		t.Fatalf("traceparent length = %d, want 55: %q", len(hdr), hdr)
	}
	sc, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", hdr)
	}
	if sc != sp.Context() {
		t.Fatalf("round trip mismatch: %+v != %+v", sc, sp.Context())
	}
	if sc.Flags&FlagSampled == 0 {
		t.Fatalf("minted span not sampled: %+v", sc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("valid header rejected: %q", valid)
	}
	bad := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // reserved version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // trailing junk on v00
		"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong separator
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", s)
		}
	}
	// A future version may carry extra fields after the flags.
	future := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"
	if _, ok := ParseTraceparent(future); !ok {
		t.Errorf("future-version header rejected: %q", future)
	}
}

// FuzzParseTraceparent: no header value panics the parser, and every value
// it accepts is a valid context that re-renders as the version-00 form of
// the same ids and flags — whatever version or trailing fields it carried.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if !sc.IsValid() {
			t.Fatalf("accepted %q as an invalid context %+v", s, sc)
		}
		if got, want := sc.Traceparent(), "00"+s[2:55]; got != want {
			t.Fatalf("accepted %q re-renders as %q, want %q", s, got, want)
		}
	})
}

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "noop")
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil span stored in context")
	}
	sp.SetAttr("k", 1)
	sp.SetError(fmt.Errorf("x"))
	sp.End()
	if got := sp.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q", got)
	}
	if got := TraceIDFromContext(ctx); got != "" {
		t.Fatalf("TraceIDFromContext on empty ctx = %q", got)
	}
	if tp := sp.Context().Traceparent(); tp != "" {
		t.Fatalf("nil span traceparent = %q", tp)
	}
}

func TestChildSpansShareTrace(t *testing.T) {
	rec := NewRecorder("n1")
	tr := New("n1", rec)
	ctx, root := tr.Start(context.Background(), "root")
	_, child := tr.Start(ctx, "child")
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child trace %s != root trace %s", child.TraceID(), root.TraceID())
	}
	if child.SpanID() == root.SpanID() {
		t.Fatal("child reused root span id")
	}
	child.SetAttr("k", 7)
	child.End()
	root.End()

	td, ok := rec.Trace(root.TraceID())
	if !ok {
		t.Fatalf("trace %s not retained", root.TraceID())
	}
	if len(td.Spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(td.Spans))
	}
	// Spans land in end order: child first.
	if td.Spans[0].Name != "child" || td.Spans[0].ParentID != root.SpanID() {
		t.Fatalf("child span wrong: %+v", td.Spans[0])
	}
	if td.Spans[1].Name != "root" || td.Spans[1].ParentID != "" {
		t.Fatalf("root span wrong: %+v", td.Spans[1])
	}
}

func TestStartRemoteContinuesTrace(t *testing.T) {
	rec := NewRecorder("server")
	tr := New("server", rec)
	remote, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("parse failed")
	}
	_, sp := tr.StartRemote(context.Background(), remote, "http")
	if sp.TraceID() != remote.TraceID.String() {
		t.Fatalf("remote trace not continued: %s != %s", sp.TraceID(), remote.TraceID)
	}
	sp.End()
	if _, ok := rec.Trace(remote.TraceID.String()); !ok {
		t.Fatal("continued trace not recorded")
	}

	// Invalid remote context starts a fresh root trace.
	_, sp2 := tr.StartRemote(context.Background(), SpanContext{}, "http")
	if sp2.TraceID() == "" || sp2.TraceID() == remote.TraceID.String() {
		t.Fatalf("invalid remote should mint a new trace, got %q", sp2.TraceID())
	}
}

func TestRecorderEvictionAndSlowest(t *testing.T) {
	rec := NewRecorder("n1")
	rec.SetLimits(4, 8, 2)
	tr := New("n1", rec)
	base := time.Unix(0, 0)
	// Trace i has duration i ms; the slowest must survive eviction.
	var ids []string
	for i := 1; i <= 10; i++ {
		now := base
		tr.SetNow(func() time.Time { return now })
		_, sp := tr.Start(context.Background(), fmt.Sprintf("op%d", i))
		now = base.Add(time.Duration(i) * time.Millisecond)
		sp.End()
		ids = append(ids, sp.TraceID())
	}
	snap := rec.Snapshot()
	if len(snap.Recent) != 4 {
		t.Fatalf("recent ring holds %d, want 4", len(snap.Recent))
	}
	if snap.Recent[0].TraceID != ids[9] {
		t.Fatalf("newest-first order violated: %s", snap.Recent[0].TraceID)
	}
	if len(snap.Slowest) != 2 {
		t.Fatalf("slowest bucket holds %d, want 2", len(snap.Slowest))
	}
	// Traces 1..6 were evicted; 5 and 6 (5ms, 6ms) are the slowest of those.
	if snap.Slowest[0].TraceID != ids[5] || snap.Slowest[1].TraceID != ids[4] {
		t.Fatalf("slowest bucket kept %s,%s want %s,%s",
			snap.Slowest[0].TraceID, snap.Slowest[1].TraceID, ids[5], ids[4])
	}
	if snap.Slowest[0].Duration != 6*time.Millisecond {
		t.Fatalf("slowest duration = %v, want 6ms", snap.Slowest[0].Duration)
	}
	// Trace lookup still finds an evicted-but-slow trace.
	if _, ok := rec.Trace(ids[5]); !ok {
		t.Fatal("slow trace not findable after eviction")
	}
	if _, ok := rec.Trace(ids[0]); ok {
		t.Fatal("fast evicted trace still findable")
	}
}

func TestRecorderSpanCap(t *testing.T) {
	rec := NewRecorder("n1")
	rec.SetLimits(4, 3, 0)
	tr := New("n1", rec)
	ctx, root := tr.Start(context.Background(), "root")
	for i := 0; i < 5; i++ {
		_, sp := tr.Start(ctx, "child")
		sp.End()
	}
	root.End()
	td, ok := rec.Trace(root.TraceID())
	if !ok {
		t.Fatal("trace missing")
	}
	if len(td.Spans) != 3 || td.DroppedSpans != 3 {
		t.Fatalf("spans=%d dropped=%d, want 3/3", len(td.Spans), td.DroppedSpans)
	}
}

func TestRecorderConcurrency(t *testing.T) {
	rec := NewRecorder("n1")
	rec.SetLimits(16, 16, 4)
	tr := New("n1", rec)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ctx, root := tr.Start(context.Background(), "root")
				_, child := tr.Start(ctx, "child")
				child.End()
				root.End()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		rec.Snapshot()
	}
	wg.Wait()
	if n := len(rec.Snapshot().Recent); n == 0 || n > 16 {
		t.Fatalf("recent ring size %d out of bounds", n)
	}
}

func TestDebugTracesHandler(t *testing.T) {
	rec := NewRecorder("n1")
	tr := New("n1", rec)
	_, sp := tr.Start(context.Background(), "op")
	sp.SetAttr("session", "abc")
	sp.End()

	srv := httptest.NewServer(Handler(rec))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Node != "n1" || len(snap.Recent) != 1 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	if snap.Recent[0].TraceID != sp.TraceID() {
		t.Fatalf("trace id %s, want %s", snap.Recent[0].TraceID, sp.TraceID())
	}

	one, err := srv.Client().Get(srv.URL + "/debug/traces?trace=" + sp.TraceID())
	if err != nil {
		t.Fatal(err)
	}
	defer one.Body.Close()
	if one.StatusCode != 200 {
		t.Fatalf("single-trace status %d", one.StatusCode)
	}
	missing, err := srv.Client().Get(srv.URL + "/debug/traces?trace=deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != 404 {
		t.Fatalf("missing-trace status %d, want 404", missing.StatusCode)
	}
	post, err := srv.Client().Post(srv.URL+"/debug/traces", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Fatalf("POST status %d, want 405", post.StatusCode)
	}
}
