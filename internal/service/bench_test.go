package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"crowdfusion/internal/core"
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/store"
)

// benchMarginals are 12 spread-out fact marginals, the prior benchJoint
// builds.
func benchMarginals() []float64 {
	rng := rand.New(rand.NewSource(7))
	m := make([]float64, 12)
	for i := range m {
		m[i] = 0.3 + 0.4*rng.Float64()
	}
	return m
}

// benchJoint builds a 12-fact product prior with spread-out marginals —
// 4096 support worlds, the scale of a real per-book instance after fusion.
func benchJoint(b *testing.B) *dist.Joint {
	b.Helper()
	j, err := dist.Independent(benchMarginals())
	if err != nil {
		b.Fatal(err)
	}
	return j
}

// BenchmarkServiceSelect measures the service-layer selection hot path —
// per-session lock, budget clamp, greedy sweep, H(T) — with the
// posterior-version cache defeated, so every iteration pays for a real
// selection. This is the per-request compute cost a saturated daemon sees.
func BenchmarkServiceSelect(b *testing.B) {
	s := newSession("bench", benchJoint(b), core.NewGreedyPrunePre(),
		"Approx+Prune+Pre", 0.8, 3, 1<<30, time.Unix(0, 0))
	now := time.Unix(1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sel = nil // defeat the cache: measure real selections
		if _, _, err := s.Select(context.Background(), now, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSelectCached measures the cache-hit path: what repeated
// polls of the same posterior cost once the batch is computed.
func BenchmarkServiceSelectCached(b *testing.B) {
	s := newSession("bench", benchJoint(b), core.NewGreedyPrunePre(),
		"Approx+Prune+Pre", 0.8, 3, 1<<30, time.Unix(0, 0))
	now := time.Unix(1, 0)
	if _, _, err := s.Select(context.Background(), now, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Select(context.Background(), now, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSelectHTTP measures the full serving stack for a select:
// routing, backpressure gate, JSON encode/decode, and the (cached)
// selection — the end-to-end request throughput ceiling of one session.
func BenchmarkServiceSelectHTTP(b *testing.B) {
	svc := NewServer(Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	joint := benchJoint(b)
	body, err := json.Marshal(CreateSessionRequest{
		Joint: func() *WireJoint { w := NewWireJoint(joint); return &w }(),
		Pc:    0.8, K: 3, Budget: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()

	url := ts.URL + "/v1/sessions/" + info.ID + "/select"
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(url, "application/json", nil)
		if err != nil {
			b.Fatal(err)
		}
		var sel SelectResponse
		if err := json.NewDecoder(resp.Body).Decode(&sel); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if len(sel.Tasks) == 0 {
			b.Fatal("empty batch")
		}
	}
}

// BenchmarkServiceMerge measures the scalar conditioning path — the
// fixed-pc Bayesian update every merge on a fixed-model session pays —
// against the same 4096-world posterior the selection benchmarks use.
// No channels, so this is exactly the session run's scalar conditioning
// (core.Run.Update). A live merge reports the posterior's entropy and
// marginals, which are computed on first read, so each iteration reads
// them.
func BenchmarkServiceMerge(b *testing.B) {
	s := newSession("bench", benchJoint(b), core.NewGreedyPrunePre(),
		"Approx+Prune+Pre", 0.8, 3, 1<<30, time.Unix(0, 0))
	tasks := []int{0, 2, 4, 6, 8, 10}
	answers := []bool{true, false, true, true, false, true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post, err := s.run.Update(tasks, answers, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		post.Entropy()
		post.Marginals()
	}
}

// BenchmarkWeightedMerge measures the weighted conditioning path — the
// per-judgment channel build plus the heterogeneous-likelihood kernel —
// against the same 4096-world posterior the selection benchmarks use.
// Three distinct worker channels defeat the uniform-case delegation, so
// this is the genuinely weighted arithmetic an em/dawid-skene session pays
// on every post-refit merge, with the entropy and marginals the merge
// reports read as in BenchmarkServiceMerge. The channels are a
// Dawid-Skene fit of a 12-fact log on which w1 always answers the truth, w2
// errs on every fourth fact and w3 on every third.
func BenchmarkWeightedMerge(b *testing.B) {
	s := newSession("bench", benchJoint(b), core.NewGreedyPrunePre(),
		"Approx+Prune+Pre", 0.8, 3, 1<<30, time.Unix(0, 0))
	s.workers = crowd.NewWorkerModel(WorkerModelDawidSkene, 0.8, 1)
	var log []crowd.Answer
	for f := 0; f < 12; f++ {
		truth := f%2 == 0
		log = append(log,
			crowd.Answer{Fact: f, Value: truth, Worker: "w1"},
			crowd.Answer{Fact: f, Value: truth != (f%4 == 1), Worker: "w2"},
			crowd.Answer{Fact: f, Value: truth != (f%3 == 0), Worker: "w3"})
	}
	if !s.workers.Fit(log) {
		b.Fatal("worker model fit failed")
	}
	s.refits = 1
	channels := make(map[[2]float64]bool)
	for _, w := range []string{"w1", "w2", "w3"} {
		sens, spec, _ := s.workers.Channel(w)
		channels[[2]float64{sens, spec}] = true
	}
	if len(channels) != 3 {
		b.Fatalf("%d distinct channels, want 3", len(channels))
	}
	tasks := []int{0, 2, 4, 6, 8, 10}
	answers := []bool{true, false, true, true, false, true}
	workers := []string{"w1", "w2", "w3", "w1", "w2", "w3"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sens, spec := s.channelsLocked(store.Op{}, tasks, workers)
		post, err := s.run.Update(tasks, answers, sens, spec)
		if err != nil {
			b.Fatal(err)
		}
		post.Entropy()
		post.Marginals()
	}
}

// BenchmarkServiceRestore measures adopting an em session: restoreSession
// of a 64-round record on the benchJoint prior, k=3 Random selections
// answered by 12 workers of planted accuracies 0.6–0.95, and the Info the
// adopting GET reads. Each merge's journaled op records the channels it
// was conditioned on, so replay conditions on them and fits the worker
// model once, at the end, instead of refitting the growing observation log
// after every merge.
func BenchmarkServiceRestore(b *testing.B) {
	benchRestore(b, false)
}

// BenchmarkServiceRestoreHistory measures the adoption a history reader
// pays: the same restore, then a GET ?rounds=true, whose first read
// replays the journal again to rebuild the deferred round history. A
// merge retry naming an older version pays the same rebuild.
func BenchmarkServiceRestoreHistory(b *testing.B) {
	benchRestore(b, true)
}

func benchRestore(b *testing.B, withRounds bool) {
	m := newManager(Config{})
	defer m.Close()
	ctx, now := context.Background(), m.Now()
	marginals := benchMarginals()
	s, err := m.Create(ctx, &CreateSessionRequest{Marginals: marginals, Pc: 0.8, K: 3, Budget: 64 * 3,
		Seed: 1, Selector: "Random", WorkerModel: WorkerModelEM})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	truth := make([]bool, len(marginals))
	for i, p := range marginals {
		truth[i] = rng.Float64() < p
	}
	for r := 0; r < 64; r++ {
		sel, _, err := s.Select(ctx, now, 0)
		if err != nil {
			b.Fatal(err)
		}
		js := make([]Judgment, len(sel.Tasks))
		for i, task := range sel.Tasks {
			w := rng.Intn(12)
			right := rng.Float64() < 0.6+0.35*float64(w)/11
			js[i] = Judgment{Task: task, Answer: truth[task] == right, Worker: fmt.Sprintf("w%02d", w)}
		}
		v := sel.Version
		if resp, err := s.Merge(ctx, now, &AnswersRequest{Version: &v, Judgments: js}); err != nil || !resp.Merged {
			b.Fatalf("round %d: %+v, %v", r, resp, err)
		}
	}
	rec := s.record()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := restoreSession(rec, DefaultAnonWorker, now)
		if err != nil {
			b.Fatal(err)
		}
		if info := s.Info(ctx, now, withRounds); withRounds && len(info.Rounds) != 64 {
			b.Fatalf("%d rounds, want 64", len(info.Rounds))
		}
	}
}
