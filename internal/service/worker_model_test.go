package service

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// workerCreateReq builds a create request with room for many attributed
// rounds: uniform marginals over n facts and an effectively unlimited
// budget.
func workerCreateReq(n int, model string) *CreateSessionRequest {
	marg := make([]float64, n)
	for i := range marg {
		marg[i] = 0.5
	}
	return &CreateSessionRequest{
		Marginals:   marg,
		Pc:          0.8,
		K:           2,
		Budget:      1 << 20,
		Seed:        7,
		WorkerModel: model,
	}
}

// judge pairs every task with a worker and a planted answer.
func judge(tasks []int, answers []bool, workers []string) []Judgment {
	js := make([]Judgment, len(tasks))
	for i := range tasks {
		js[i] = Judgment{Task: tasks[i], Answer: answers[i], Worker: workers[i]}
	}
	return js
}

func TestCreateRejectsUnknownWorkerModel(t *testing.T) {
	m := NewManager(ManagerConfig{})
	defer m.Close()

	req := workerCreateReq(4, "majority-vote")
	if _, err := m.Create(context.Background(), req); !errors.Is(err, ErrUnknownWorkerModel) {
		t.Fatalf("err = %v, want ErrUnknownWorkerModel", err)
	}
	for _, model := range []string{"", WorkerModelFixed, WorkerModelEM, WorkerModelDawidSkene} {
		s, err := m.Create(context.Background(), workerCreateReq(4, model))
		if err != nil {
			t.Fatalf("model %q: %v", model, err)
		}
		want := model
		if want == "" {
			want = WorkerModelFixed
		}
		if got := s.Info(time.Now(), false).WorkerModel; got != want {
			t.Fatalf("model %q: info reports %q", model, got)
		}
	}
}

func TestJudgmentsRejectDuplicateTask(t *testing.T) {
	m := NewManager(ManagerConfig{})
	defer m.Close()
	s, err := m.Create(context.Background(), workerCreateReq(4, WorkerModelEM))
	if err != nil {
		t.Fatal(err)
	}
	v := 0
	req := &AnswersRequest{Version: &v, Judgments: []Judgment{
		{Task: 0, Answer: true, Worker: "w1"},
		{Task: 1, Answer: false, Worker: "w2"},
		{Task: 0, Answer: false, Worker: "w2"},
	}}
	if _, err := s.Merge(context.Background(), time.Now(), req); !errors.Is(err, ErrDuplicateTask) {
		t.Fatalf("err = %v, want ErrDuplicateTask", err)
	}
}

// TestAttributionConflictOnRetry: under every worker model, a retry of a
// committed attributed answer set replays when it keeps the attribution,
// is refused when it re-attributes a judgment, and passes in legacy form —
// on the live instance and, identically, on one recovered from the same
// file store by a second manager.
func TestAttributionConflictOnRetry(t *testing.T) {
	for _, model := range []string{WorkerModelFixed, WorkerModelEM, WorkerModelDawidSkene} {
		t.Run(model, func(t *testing.T) {
			dir := t.TempDir()
			now := time.Unix(1000, 0)
			cfg := ManagerConfig{now: func() time.Time { return now }}
			m1 := newFileManager(t, dir, cfg)
			s, err := m1.Create(context.Background(), workerCreateReq(4, model))
			if err != nil {
				t.Fatal(err)
			}
			v := 0
			tasks := []int{0, 1}
			answers := []bool{true, false}
			first := &AnswersRequest{Version: &v, Judgments: judge(tasks, answers, []string{"w1", "w2"})}
			if resp, err := s.Merge(context.Background(), now, first); err != nil || !resp.Merged {
				t.Fatalf("first merge: %+v, %v", resp, err)
			}
			checkRetries := func(t *testing.T, s *Session) {
				t.Helper()
				// Same answer set, same attribution: idempotent replay.
				resp, err := s.Merge(context.Background(), now, first)
				if err != nil || resp.Merged {
					t.Fatalf("identical retry: %+v, %v", resp, err)
				}
				// Same answer set re-attributed to a different worker: refused.
				conflicting := &AnswersRequest{Version: &v, Judgments: judge(tasks, answers, []string{"w1", "w9"})}
				if _, err := s.Merge(context.Background(), now, conflicting); !errors.Is(err, ErrAttributionConflict) {
					t.Fatalf("re-attributed retry: err = %v, want ErrAttributionConflict", err)
				}
				// A legacy-form retry carries no attribution to contradict.
				legacy := &AnswersRequest{Version: &v, Tasks: tasks, Answers: answers}
				if resp, err := s.Merge(context.Background(), now, legacy); err != nil || resp.Merged {
					t.Fatalf("legacy retry: %+v, %v", resp, err)
				}
			}
			checkRetries(t, s)
			// No Close: the process just died.

			m2 := newFileManager(t, dir, cfg)
			defer m2.Close()
			recovered, err := m2.Get(context.Background(), s.ID())
			if err != nil {
				t.Fatal(err)
			}
			checkRetries(t, recovered)
		})
	}
}

// TestServerWorkerEnvelopeCodes pins the three new failure classes to
// their typed envelope codes over HTTP, per the API-versioning satellite.
func TestServerWorkerEnvelopeCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var errResp ErrorResponse
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		workerCreateReq(4, "majority-vote"), &errResp); s != http.StatusBadRequest {
		t.Fatalf("unknown model status %d", s)
	}
	if errResp.Code != CodeUnknownWorkerModel {
		t.Fatalf("unknown model code %q, want %q", errResp.Code, CodeUnknownWorkerModel)
	}

	var info SessionInfo
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		workerCreateReq(4, WorkerModelEM), &info); s != http.StatusCreated {
		t.Fatalf("create status %d", s)
	}
	url := ts.URL + "/v1/sessions/" + info.ID + "/answers"

	v := 0
	dup := &AnswersRequest{Version: &v, Judgments: []Judgment{
		{Task: 0, Answer: true, Worker: "w1"},
		{Task: 0, Answer: true, Worker: "w2"},
	}}
	errResp = ErrorResponse{}
	if s := doJSON(t, http.MethodPost, url, dup, &errResp); s != http.StatusBadRequest {
		t.Fatalf("duplicate task status %d", s)
	}
	if errResp.Code != CodeDuplicateTask {
		t.Fatalf("duplicate task code %q, want %q", errResp.Code, CodeDuplicateTask)
	}

	good := &AnswersRequest{Version: &v, Judgments: judge([]int{0, 1}, []bool{true, false}, []string{"w1", "w2"})}
	if s := doJSON(t, http.MethodPost, url, good, nil); s != http.StatusOK {
		t.Fatalf("merge status %d", s)
	}
	conflicting := &AnswersRequest{Version: &v, Judgments: judge([]int{0, 1}, []bool{true, false}, []string{"w1", "w9"})}
	errResp = ErrorResponse{}
	if s := doJSON(t, http.MethodPost, url, conflicting, &errResp); s != http.StatusConflict {
		t.Fatalf("attribution conflict status %d", s)
	}
	if errResp.Code != CodeAttributionConflict {
		t.Fatalf("attribution conflict code %q, want %q", errResp.Code, CodeAttributionConflict)
	}
}

// driveDifferentialRound submits round r's deterministic answer set to a
// fixed session (legacy arrays) and an em session (judgments from workers
// never seen before), returning after asserting both merged.
func driveDifferentialRound(t *testing.T, now time.Time, fixed, em *Session, r int) {
	t.Helper()
	tasks := []int{0, 1, 2, 3}
	answers := make([]bool, len(tasks))
	for i, f := range tasks {
		answers[i] = (f+r)%2 == 0
	}
	v1, v2 := r, r
	legacy := &AnswersRequest{Version: &v1, Tasks: tasks, Answers: answers}
	if resp, err := fixed.Merge(context.Background(), now, legacy); err != nil || !resp.Merged {
		t.Fatalf("round %d fixed: %+v, %v", r, resp, err)
	}
	// Fresh worker IDs every round: the refit never covers them, so every
	// judgment's channel sits exactly at pc — the uniform case.
	workers := make([]string, len(tasks))
	for i := range workers {
		workers[i] = "w" + string(rune('a'+r)) + "-" + string(rune('0'+i))
	}
	attributed := &AnswersRequest{Version: &v2, Judgments: judge(tasks, answers, workers)}
	if resp, err := em.Merge(context.Background(), now, attributed); err != nil || !resp.Merged {
		t.Fatalf("round %d em: %+v, %v", r, resp, err)
	}
}

// TestWeightedUniformMatchesFixedInProcess is the ISSUE's differential
// oracle at the session level: an em session whose every judgment comes
// from a worker the refit has never covered conditions through the
// weighted path with all channels pinned at pc — and must reproduce the
// fixed-pc posterior bit-for-bit, round after round, refits and all.
func TestWeightedUniformMatchesFixedInProcess(t *testing.T) {
	m := NewManager(ManagerConfig{})
	defer m.Close()
	var weighted int
	m.weightedMerged = func() { weighted++ }

	fixed, err := m.Create(context.Background(), workerCreateReq(4, WorkerModelFixed))
	if err != nil {
		t.Fatal(err)
	}
	em, err := m.Create(context.Background(), workerCreateReq(4, WorkerModelEM))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	for r := 0; r < 5; r++ {
		driveDifferentialRound(t, now, fixed, em, r)
		fp, ep := fixed.Posterior(), em.Posterior()
		if !reflect.DeepEqual(fp.Worlds(), ep.Worlds()) || !reflect.DeepEqual(fp.Probs(), ep.Probs()) {
			t.Fatalf("round %d: posteriors diverged\nfixed %v %v\n   em %v %v",
				r, fp.Worlds(), fp.Probs(), ep.Worlds(), ep.Probs())
		}
	}
	// The equivalence must come from delegation inside the weighted path,
	// not from never taking it: the em session refit after round one and
	// conditioned every later round through the weighted kernel.
	em.mu.Lock()
	refits := em.refits
	em.mu.Unlock()
	if refits < 4 {
		t.Fatalf("em session refit %d times, want one per merge after the first", refits)
	}
	if weighted < 4 {
		t.Fatalf("weighted conditioning ran %d times, want every post-refit round", weighted)
	}
}

// TestWeightedUniformMatchesFixedHTTP runs the same oracle over the wire:
// both submission forms through the full HTTP stack, marginals compared
// exactly (Go's JSON float encoding round-trips bit-for-bit).
func TestWeightedUniformMatchesFixedHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var fixed, em SessionInfo
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", workerCreateReq(4, WorkerModelFixed), &fixed); s != http.StatusCreated {
		t.Fatalf("create fixed: %d", s)
	}
	if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", workerCreateReq(4, WorkerModelEM), &em); s != http.StatusCreated {
		t.Fatalf("create em: %d", s)
	}
	for r := 0; r < 4; r++ {
		tasks := []int{0, 1, 2, 3}
		answers := make([]bool, len(tasks))
		for i, f := range tasks {
			answers[i] = (f+r)%2 == 0
		}
		workers := make([]string, len(tasks))
		for i := range workers {
			workers[i] = "rw" + string(rune('a'+r)) + string(rune('0'+i))
		}
		v1, v2 := r, r
		var fResp, eResp AnswersResponse
		if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+fixed.ID+"/answers",
			&AnswersRequest{Version: &v1, Tasks: tasks, Answers: answers}, &fResp); s != http.StatusOK {
			t.Fatalf("round %d fixed merge: %d", r, s)
		}
		if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+em.ID+"/answers",
			&AnswersRequest{Version: &v2, Judgments: judge(tasks, answers, workers)}, &eResp); s != http.StatusOK {
			t.Fatalf("round %d em merge: %d", r, s)
		}
		if !reflect.DeepEqual(fResp.Marginals, eResp.Marginals) || fResp.Entropy != eResp.Entropy {
			t.Fatalf("round %d: wire marginals diverged\nfixed %v\n   em %v", r, fResp.Marginals, eResp.Marginals)
		}
	}
	// The em session's calibration surface is live and attributes the
	// fleet it saw.
	var cal CalibrationResponse
	if s := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+em.ID+"/calibration", nil, &cal); s != http.StatusOK {
		t.Fatalf("calibration: %d", s)
	}
	if cal.WorkerModel != WorkerModelEM || len(cal.Workers) != 16 || cal.Refits == 0 {
		t.Fatalf("calibration = model %q, %d workers, %d refits", cal.WorkerModel, len(cal.Workers), cal.Refits)
	}
}

// TestCrashRecoveryWeightedBitIdentical is the satellite SIGKILL test: an
// em session whose refits produced genuinely non-uniform weights is
// abandoned without shutdown, recovered from its journal by a second
// manager, and must serve the identical posterior bits and identical
// per-worker statistics. A fixed/em differential pair rides along so the
// uniform-weights oracle also holds across replay.
func TestCrashRecoveryWeightedBitIdentical(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	mcfg := func() ManagerConfig { return ManagerConfig{now: func() time.Time { return now }} }

	m1 := newFileManager(t, dir, mcfg())
	em, err := m1.Create(context.Background(), workerCreateReq(4, WorkerModelDawidSkene))
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := m1.Create(context.Background(), workerCreateReq(4, WorkerModelFixed))
	if err != nil {
		t.Fatal(err)
	}
	unif, err := m1.Create(context.Background(), workerCreateReq(4, WorkerModelEM))
	if err != nil {
		t.Fatal(err)
	}

	// The weighted session reuses three workers of planted disagreement,
	// so after the first refit their channels genuinely differ.
	crew := []string{"w1", "w2", "w3"}
	var lastReq *AnswersRequest
	for r := 0; r < 4; r++ {
		tasks := []int{0, 1, 2, 3}
		answers := make([]bool, len(tasks))
		workers := make([]string, len(tasks))
		for i, f := range tasks {
			workers[i] = crew[(r+i)%len(crew)]
			answers[i] = f%2 == 0
			if workers[i] == "w3" {
				answers[i] = !answers[i] // w3 contradicts the others
			}
		}
		v := r
		lastReq = &AnswersRequest{Version: &v, Judgments: judge(tasks, answers, workers)}
		if resp, err := em.Merge(context.Background(), now, lastReq); err != nil || !resp.Merged {
			t.Fatalf("round %d: %+v, %v", r, resp, err)
		}
		driveDifferentialRound(t, now, fixed, unif, r)
	}
	em.mu.Lock()
	uniform := true
	sn1, sp1 := em.workerChannelLocked("w1")
	sn3, sp3 := em.workerChannelLocked("w3")
	if sn1 != sn3 || sp1 != sp3 {
		uniform = false
	}
	em.mu.Unlock()
	if uniform {
		t.Fatal("planted disagreement produced uniform channels; the weighted path is untested")
	}
	wantFP := fingerprint(em, now)
	wantStats := em.WorkerStats()
	wantFixed := fingerprint(fixed, now)
	wantUnif := fingerprint(unif, now)
	// No Close: the process just died.

	m2 := newFileManager(t, dir, mcfg())
	defer m2.Close()
	em2, err := m2.Get(context.Background(), em.ID())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	requireIdentical(t, fingerprint(em2, now), wantFP)
	if got := em2.WorkerStats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("worker stats diverged after replay:\n got %+v\nwant %+v", got, wantStats)
	}
	// The uniform-weights differential holds across replay too.
	fixed2, err := m2.Get(context.Background(), fixed.ID())
	if err != nil {
		t.Fatal(err)
	}
	unif2, err := m2.Get(context.Background(), unif.ID())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, fingerprint(fixed2, now), wantFixed)
	requireIdentical(t, fingerprint(unif2, now), wantUnif)
	gotF, gotU := fingerprint(fixed2, now), fingerprint(unif2, now)
	if !reflect.DeepEqual(gotF.probs, gotU.probs) || !reflect.DeepEqual(gotF.worlds, gotU.worlds) {
		t.Fatal("fixed and uniform-em posteriors diverged after replay")
	}

	// An attributed retry of the last acknowledged set replays
	// idempotently with its original attribution — and a re-attributed one
	// is still refused after recovery.
	resp, err := em2.Merge(context.Background(), now, lastReq)
	if err != nil || resp.Merged {
		t.Fatalf("attributed retry after recovery: %+v, %v", resp, err)
	}
	bad := *lastReq
	bad.Judgments = append([]Judgment(nil), lastReq.Judgments...)
	bad.Judgments[0].Worker = "w9"
	if _, err := em2.Merge(context.Background(), now, &bad); !errors.Is(err, ErrAttributionConflict) {
		t.Fatalf("re-attributed retry after recovery: err = %v, want ErrAttributionConflict", err)
	}
}

// TestGoldenAdversarialWorkerDownWeighted is the ISSUE's golden test: a
// planted low-accuracy worker among honest ones is estimated near its
// planted accuracy, its influence falls below the honest workers', and
// the weighted posterior lands closer to the planted truth than the
// fixed-pc run fed the identical answers.
func TestGoldenAdversarialWorkerDownWeighted(t *testing.T) {
	const (
		nFacts     = 8
		rounds     = 12
		honestAcc  = 0.9
		plantedAcc = 0.55
	)
	truth := func(f int) bool { return f%2 == 0 }
	accOf := map[string]float64{"honest-a": honestAcc, "honest-b": honestAcc, "adversary": plantedAcc}
	crew := []string{"honest-a", "honest-b", "adversary"}

	m := NewManager(ManagerConfig{})
	defer m.Close()
	em, err := m.Create(context.Background(), workerCreateReq(nFacts, WorkerModelEM))
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := m.Create(context.Background(), workerCreateReq(nFacts, WorkerModelFixed))
	if err != nil {
		t.Fatal(err)
	}

	now := time.Unix(1000, 0)
	rng := rand.New(rand.NewSource(99))
	for r := 0; r < rounds; r++ {
		tasks := make([]int, nFacts)
		answers := make([]bool, nFacts)
		workers := make([]string, nFacts)
		for f := 0; f < nFacts; f++ {
			tasks[f] = f
			workers[f] = crew[(r+f)%len(crew)]
			answers[f] = truth(f)
			if rng.Float64() >= accOf[workers[f]] {
				answers[f] = !answers[f]
			}
		}
		v1, v2 := r, r
		if resp, err := em.Merge(context.Background(), now,
			&AnswersRequest{Version: &v1, Judgments: judge(tasks, answers, workers)}); err != nil || !resp.Merged {
			t.Fatalf("round %d em: %+v, %v", r, resp, err)
		}
		if resp, err := fixed.Merge(context.Background(), now,
			&AnswersRequest{Version: &v2, Tasks: tasks, Answers: answers}); err != nil || !resp.Merged {
			t.Fatalf("round %d fixed: %+v, %v", r, resp, err)
		}
	}

	stats := em.WorkerStats()
	byWorker := make(map[string]WorkerInfo, len(stats))
	for _, w := range stats {
		byWorker[w.Worker] = w
	}
	adv := byWorker["adversary"]
	if math.Abs(adv.Accuracy-plantedAcc) > 0.1 {
		t.Fatalf("adversary estimated at %.3f, planted %.2f (want within 0.1)", adv.Accuracy, plantedAcc)
	}
	for _, h := range []string{"honest-a", "honest-b"} {
		if byWorker[h].Accuracy <= adv.Accuracy {
			t.Fatalf("honest %s estimated %.3f, not above adversary %.3f",
				h, byWorker[h].Accuracy, adv.Accuracy)
		}
	}

	meanErr := func(s *Session) float64 {
		var sum float64
		marg := s.Info(now, false).Marginals
		for f, p := range marg {
			want := 0.0
			if truth(f) {
				want = 1.0
			}
			sum += math.Abs(p - want)
		}
		return sum / float64(len(marg))
	}
	emErr, fixedErr := meanErr(em), meanErr(fixed)
	if emErr >= fixedErr {
		t.Fatalf("weighted posterior error %.4f not below fixed-pc error %.4f", emErr, fixedErr)
	}
	t.Logf("adversary est %.3f (raw %.3f), honest est %.3f/%.3f, posterior error em %.4f vs fixed %.4f",
		adv.Accuracy, adv.Raw, byWorker["honest-a"].Accuracy, byWorker["honest-b"].Accuracy, emErr, fixedErr)
}

// TestLegacyFixedJournalUnchanged: a fixed session fed only legacy
// parallel-array submissions journals no observations and stores no worker
// model — its durable record is byte-compatible with pre-worker-model
// nodes — while still recovering bit-identically.
func TestLegacyFixedJournalUnchanged(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	m1 := newFileManager(t, dir, ManagerConfig{now: func() time.Time { return now }})
	s1, err := m1.Create(context.Background(), testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	last := runRounds(t, s1, now, 2)
	want := fingerprint(s1, now)

	rec := s1.record()
	if rec.WorkerModel != "" || len(rec.Observations) != 0 {
		t.Fatalf("legacy fixed session polluted its record: model %q, %d observations",
			rec.WorkerModel, len(rec.Observations))
	}

	m2 := newFileManager(t, dir, ManagerConfig{now: func() time.Time { return now }})
	defer m2.Close()
	s2, err := m2.Get(context.Background(), s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, fingerprint(s2, now), want)
	if resp, err := s2.Merge(context.Background(), now, last); err != nil || resp.Merged {
		t.Fatalf("legacy idempotent retry after recovery: %+v, %v", resp, err)
	}
}
