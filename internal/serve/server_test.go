package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestServer builds a Server plus an HTTP listener around it.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

// post sends body (a value to marshal, or a raw string) and returns the
// status code and decoded JobStatus-shaped response bytes.
func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	var buf []byte
	switch b := body.(type) {
	case string:
		buf = []byte(b)
	default:
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, out.Bytes()
}

// getJSON GETs url and unmarshals into v.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	if v != nil {
		if err := json.Unmarshal(out.Bytes(), v); err != nil {
			t.Fatalf("unmarshal %s response %q: %v", url, out.String(), err)
		}
	}
	return resp.StatusCode
}

// pollDone polls a job until it leaves the queued/running states.
func pollDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		code := getJSON(t, base+"/v1/jobs/"+id, &st)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State == JobDone || st.State == JobFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// submitAndWait posts one request and polls it to completion.
func submitAndWait(t *testing.T, base string, body any) JobStatus {
	t.Helper()
	code, resp := post(t, base+"/v1/jobs", body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("POST /v1/jobs: status %d body %s", code, resp)
	}
	var st JobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatalf("unmarshal job status %q: %v", resp, err)
	}
	if st.State == JobDone || st.State == JobFailed {
		return st
	}
	return pollDone(t, base, st.ID)
}

// TestWarmStartBitIdentical is the service's acceptance contract: two
// identical requests (submitted with different JSON field orders)
// return bit-identical results, the second answered inline from the
// store — terminal state on the POST itself, no job id, no poll.
func TestWarmStartBitIdentical(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, QueueSize: 8})
	first := submitAndWait(t, ts.URL,
		`{"genome":"human","method":"sam","iterations":60,"seed":9}`)
	if first.State != JobDone {
		t.Fatalf("first job failed: %+v", first)
	}
	if first.Cached {
		t.Fatalf("first job cannot be a store hit")
	}

	// Same request, different field order and explicit defaults.
	warmBody := `{"seed":9,"iterations":60,"method":"SAM","genome":"Human","strategy":"auto","objective":"time"}`
	code, resp := post(t, ts.URL+"/v1/jobs", warmBody)
	if code != http.StatusOK {
		t.Fatalf("cached re-POST: status %d body %s (want 200, the result is already known)", code, resp)
	}
	var second JobStatus
	if err := json.Unmarshal(resp, &second); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if second.State != JobDone || !second.Cached {
		t.Fatalf("re-POST not served from the store: %+v", second)
	}
	if second.ID != "" {
		t.Fatalf("warm hit registered a job (id %q); it must answer inline with no registry entry", second.ID)
	}
	if second.Key != first.Key {
		t.Fatalf("identical requests keyed differently:\n%s\n%s", first.Key, second.Key)
	}

	// The warm result is byte-identical to the cold job's GET result.
	var g1 JobStatus
	getJSON(t, ts.URL+"/v1/jobs/"+first.ID, &g1)
	b1, _ := json.Marshal(g1.Result)
	b2, _ := json.Marshal(second.Result)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("results differ:\n%s\n%s", b1, b2)
	}

	// Warm hits are served stored bytes: two re-POSTs return
	// byte-identical whole bodies, structurally.
	code, resp2 := post(t, ts.URL+"/v1/jobs", warmBody)
	if code != http.StatusOK {
		t.Fatalf("second re-POST: status %d", code)
	}
	if !bytes.Equal(resp, resp2) {
		t.Fatalf("warm-hit bodies differ:\n%s\n%s", resp, resp2)
	}

	m := s.Metrics()
	if m.Store.Lookups != 3 || m.Store.Hits != 2 || m.Jobs.StoreHits != 2 {
		t.Fatalf("store accounting: %+v %+v", m.Store, m.Jobs)
	}
	if m.Jobs.Submitted != 3 || m.Jobs.Completed != 3 || m.Jobs.Failed != 0 {
		t.Fatalf("job accounting: %+v", m.Jobs)
	}
	if m.Latency.Warm.Count != 2 || m.Latency.Cold.Count != 1 {
		t.Fatalf("latency split: %+v", m.Latency)
	}
}

// TestBatchAlphaSweep maps a time/energy front in one call and checks
// the whole batch warm-starts on re-submission.
func TestBatchAlphaSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueSize: 16})
	batch := BatchRequest{
		Template: &TuneRequest{Method: "sam", Iterations: 40, Seed: 3},
		Alphas:   []float64{0, 0.5, 1},
	}
	code, resp := post(t, ts.URL+"/v1/jobs:batch", batch)
	if code != http.StatusAccepted {
		t.Fatalf("batch: status %d body %s", code, resp)
	}
	var br BatchResponse
	if err := json.Unmarshal(resp, &br); err != nil {
		t.Fatalf("unmarshal batch: %v", err)
	}
	if len(br.Jobs) != 3 {
		t.Fatalf("batch accepted %d jobs, want 3", len(br.Jobs))
	}
	results := make([]JobStatus, len(br.Jobs))
	for i, j := range br.Jobs {
		if j.State == JobRejected {
			t.Fatalf("batch member %d rejected: %+v", i, j)
		}
		results[i] = pollDone(t, ts.URL, j.ID)
		if results[i].State != JobDone {
			t.Fatalf("batch member %d failed: %+v", i, results[i])
		}
		want := fmt.Sprintf("weighted(alpha=%g)", batch.Alphas[i])
		if results[i].Result.Objective != want {
			t.Fatalf("member %d objective %q, want %q", i, results[i].Result.Objective, want)
		}
	}
	// Each point's measured objective is the weighted sum of its own
	// measured time and energy (alpha*T + (1-alpha)*E/50).
	for i, a := range batch.Alphas {
		r := results[i].Result
		want := a*r.TimeSec + (1-a)*r.EnergyJ/50
		if diff := want - r.MeasuredObjective; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("member %d measured objective %g, want %g", i, r.MeasuredObjective, want)
		}
	}

	// Re-submitting the whole batch is answered from the store.
	code, resp = post(t, ts.URL+"/v1/jobs:batch", batch)
	if code != http.StatusAccepted {
		t.Fatalf("batch re-POST: status %d", code)
	}
	if err := json.Unmarshal(resp, &br); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for i, j := range br.Jobs {
		if j.State != JobDone || !j.Cached {
			t.Fatalf("re-POSTed member %d not warm-started: %+v", i, j)
		}
		b1, _ := json.Marshal(results[i].Result)
		b2, _ := json.Marshal(j.Result)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("member %d result changed:\n%s\n%s", i, b1, b2)
		}
	}
}

// TestBackpressure429: with one worker and a one-slot queue, the third
// concurrent job is refused with 429 and nothing is registered for it.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueSize: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s.runFn = func(req TuneRequest) (TuneResult, error) {
		started <- struct{}{}
		<-gate
		return TuneResult{Method: req.Method}, nil
	}
	defer close(gate)

	code, resp := post(t, ts.URL+"/v1/jobs", `{"method":"sam","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("job 1: status %d body %s", code, resp)
	}
	<-started // worker busy, queue empty
	code, _ = post(t, ts.URL+"/v1/jobs", `{"method":"sam","seed":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("job 2 (queued): status %d", code)
	}
	code, resp = post(t, ts.URL+"/v1/jobs", `{"method":"sam","seed":3}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d body %s, want 429", code, resp)
	}
	var e errorJSON
	if err := json.Unmarshal(resp, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body %q lacks an error envelope", resp)
	}
	if m := s.Metrics(); m.Jobs.Rejected != 1 || m.Jobs.Submitted != 2 {
		t.Fatalf("rejection accounting: %+v", m.Jobs)
	}
}

// TestGracefulDrain: Drain refuses new work but completes every
// accepted job, queued and in-flight.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueSize: 4})
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s.runFn = func(req TuneRequest) (TuneResult, error) {
		started <- struct{}{}
		<-gate
		return TuneResult{Method: req.Method}, nil
	}

	var ids []string
	for i := 0; i < 2; i++ {
		code, resp := post(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"method":"sam","seed":%d}`, i+1))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, code)
		}
		var st JobStatus
		if err := json.Unmarshal(resp, &st); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		ids = append(ids, st.ID)
	}
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// New submissions are refused while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := post(t, ts.URL+"/v1/jobs", `{"method":"sam","seed":99}`)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions still accepted while draining (status %d)", code)
		}
		time.Sleep(time.Millisecond)
	}
	// A batch hitting the draining server is 503 too, not 429.
	if code, _ := post(t, ts.URL+"/v1/jobs:batch", `{"requests":[{"method":"sam","seed":98}]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("batch while draining: status %d, want 503", code)
	}
	var h Health
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.Status != "draining" {
		t.Fatalf("healthz status %q, want draining", h.Status)
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		var st JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		if st.State != JobDone {
			t.Fatalf("accepted job %s not drained to completion: %s", id, st.State)
		}
	}
}

// TestBoundedObjectiveCarriesReference: the constrained mode reports
// the time-optimal reference run alongside the energy-minimal result.
func TestBoundedObjectiveCarriesReference(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueSize: 8})
	st := submitAndWait(t, ts.URL,
		`{"method":"sam","objective":"bounded","slack":0.10,"iterations":40,"seed":5}`)
	if st.State != JobDone {
		t.Fatalf("bounded job failed: %+v", st)
	}
	if st.Result.TimeReference == nil {
		t.Fatalf("bounded result lacks the time-optimal reference")
	}
	if !strings.HasPrefix(st.Result.Objective, "bounded(") {
		t.Fatalf("objective %q, want bounded(...)", st.Result.Objective)
	}
	bound := (1 + 0.10) * st.Result.TimeReference.TimeSec
	if st.Result.TimeSec > bound*(1+1e-9) {
		t.Fatalf("bounded result %g exceeds bound %g", st.Result.TimeSec, bound)
	}
}

// TestSharedEvaluationMemo: a second job over the same workload re-uses
// measurements the first already paid (same seed, longer budget: the
// chain's shared prefix revisits the same configurations). Physical
// sharing shows up as hits on the per-workload shared memo; the jobs'
// own Experiments accounting stays a pure function of each request.
func TestSharedEvaluationMemo(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueSize: 8})
	first := submitAndWait(t, ts.URL, `{"method":"sam","iterations":60,"seed":4}`)
	if first.State != JobDone {
		t.Fatalf("first job failed: %+v", first)
	}
	second := submitAndWait(t, ts.URL, `{"method":"sam","iterations":61,"seed":4}`)
	if second.State != JobDone {
		t.Fatalf("second job failed: %+v", second)
	}
	s.evalMu.Lock()
	memo := s.workloads[workloadKey{platform: first.Request.Platform, name: "human", sizeMB: first.Request.SizeMB}].shared
	s.evalMu.Unlock()
	if memo.Hits() == 0 {
		t.Fatalf("shared memo saw no hits across overlapping jobs (lookups=%d unique=%d)",
			memo.Lookups(), memo.Unique())
	}
	// Physical work across both jobs is the distinct-config union, not
	// the sum of what each was charged.
	if charged := first.Result.Experiments + second.Result.Experiments; memo.Unique() >= charged {
		t.Fatalf("no physical sharing: %d unique measurements for %d charged experiments", memo.Unique(), charged)
	}
}

// TestRecomputeAfterEvictionBitIdentical: even when the warm-start
// store has evicted a result and the shared evaluation memo is warm,
// recomputing the identical request answers byte-for-byte identically —
// the Experiments accounting is charged per distinct configuration
// visited, not per physical measurement paid.
func TestRecomputeAfterEvictionBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueSize: 8, StoreSize: 1})
	reqA := `{"method":"sam","iterations":50,"seed":1}`
	first := submitAndWait(t, ts.URL, reqA)
	if first.State != JobDone {
		t.Fatalf("first job failed: %+v", first)
	}
	// A different request over the same workload evicts A's store entry
	// (capacity 1) while leaving the shared evaluation memo warm.
	evictor := submitAndWait(t, ts.URL, `{"method":"sam","iterations":50,"seed":2}`)
	if evictor.State != JobDone {
		t.Fatalf("evictor job failed: %+v", evictor)
	}
	again := submitAndWait(t, ts.URL, reqA)
	if again.State != JobDone {
		t.Fatalf("recomputed job failed: %+v", again)
	}
	if again.Cached {
		t.Fatalf("expected a recompute after eviction, got a store hit")
	}
	b1, _ := json.Marshal(first.Result)
	b2, _ := json.Marshal(again.Result)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("recomputed result differs from the original:\n%s\n%s", b1, b2)
	}
}

// TestJobRetentionBound: the registry forgets the oldest completed
// jobs beyond the bound; recent jobs stay addressable.
func TestJobRetentionBound(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueSize: 8, JobRetention: 3})
	s.runFn = func(req TuneRequest) (TuneResult, error) {
		return TuneResult{Method: req.Method}, nil
	}
	var ids []string
	for seed := 1; seed <= 6; seed++ {
		st := submitAndWait(t, ts.URL, fmt.Sprintf(`{"method":"sam","seed":%d}`, seed))
		if st.State != JobDone {
			t.Fatalf("seed %d failed: %+v", seed, st)
		}
		ids = append(ids, st.ID)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Fatalf("oldest job still addressable (status %d), retention bound not enforced", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+ids[len(ids)-1], nil); code != http.StatusOK {
		t.Fatalf("newest job evicted (status %d)", code)
	}
	s.jobsMu.Lock()
	n := len(s.jobs)
	s.jobsMu.Unlock()
	if n > 3 {
		t.Fatalf("registry holds %d jobs, bound is 3", n)
	}
}

// TestJobRetentionKeepsRunningJobs: eviction skips a job still
// running at the front of the registry and forgets the oldest finished
// ones instead.
func TestJobRetentionKeepsRunningJobs(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, QueueSize: 8, JobRetention: 3})
	release := make(chan struct{})
	s.runFn = func(req TuneRequest) (TuneResult, error) {
		if req.Seed == 1 {
			<-release
		}
		return TuneResult{Method: req.Method}, nil
	}
	code, resp := post(t, ts.URL+"/v1/jobs", `{"method":"sam","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("blocked job: status %d body %s", code, resp)
	}
	var running JobStatus
	if err := json.Unmarshal(resp, &running); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := 2; seed <= 6; seed++ {
		st := submitAndWait(t, ts.URL, fmt.Sprintf(`{"method":"sam","seed":%d}`, seed))
		if st.State != JobDone {
			t.Fatalf("seed %d failed: %+v", seed, st)
		}
		ids = append(ids, st.ID)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+running.ID, nil); code != http.StatusOK {
		t.Fatalf("running job evicted (status %d)", code)
	}
	for i, id := range ids {
		want := http.StatusNotFound
		if i >= len(ids)-2 {
			want = http.StatusOK
		}
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, nil); code != want {
			t.Fatalf("job %s (seed %d): status %d, want %d", id, i+2, code, want)
		}
	}
	close(release)
}

// TestBadRequests exercises the failure envelope.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueSize: 4})
	cases := []struct {
		name, url, body string
	}{
		{"bad genome", "/v1/jobs", `{"genome":"plankton"}`},
		{"bad json", "/v1/jobs", `{"genome":`},
		{"unknown field", "/v1/jobs", `{"genom":"human"}`},
		{"empty batch", "/v1/jobs:batch", `{}`},
		{"alphas without template", "/v1/jobs:batch", `{"alphas":[0.5]}`},
		{"batch with bad member", "/v1/jobs:batch", `{"requests":[{"method":"sam"},{"genome":"plankton"}]}`},
		{"bad alpha", "/v1/jobs", `{"objective":"weighted","alpha":2}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, resp := post(t, ts.URL+tc.url, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d body %s, want 400", code, resp)
			}
			var e errorJSON
			if err := json.Unmarshal(resp, &e); err != nil || e.Error == "" {
				t.Fatalf("400 body %q lacks an error envelope", resp)
			}
		})
	}
	// A batch with any invalid member registers nothing.
	if m := s.Metrics(); m.Jobs.Submitted != 0 {
		t.Fatalf("invalid requests registered %d jobs", m.Jobs.Submitted)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/j-999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job id: status %d, want 404", code)
	}
}

// TestHealthAndMetricsEndpoints smoke-checks the observability routes.
func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 3, QueueSize: 5})
	var h Health
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h.Status != "ok" || h.Workers != 3 {
		t.Fatalf("healthz %+v", h)
	}
	st := submitAndWait(t, ts.URL, `{"method":"sam","iterations":30,"seed":2}`)
	if st.State != JobDone {
		t.Fatalf("job failed: %+v", st)
	}
	var m Metrics
	if code := getJSON(t, ts.URL+"/v1/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Requests["jobs"] != 1 || m.Requests["healthz"] != 1 {
		t.Fatalf("request counters: %+v", m.Requests)
	}
	if m.Jobs.Submitted != 1 || m.Jobs.Completed != 1 {
		t.Fatalf("job counters: %+v", m.Jobs)
	}
	if m.Latency.Count != 1 || m.Latency.MeanMS <= 0 {
		t.Fatalf("latency counters: %+v", m.Latency)
	}
	if m.Queue.Workers != 3 || m.Queue.Capacity != 5 {
		t.Fatalf("queue counters: %+v", m.Queue)
	}
}

// TestMLMethodLazyTraining: the first EML/SAML job trains the models
// once; a repeat is a store hit.
func TestMLMethodLazyTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	_, ts := newTestServer(t, Options{Workers: 2, QueueSize: 8})
	st := submitAndWait(t, ts.URL, `{"method":"saml","iterations":50,"seed":11}`)
	if st.State != JobDone {
		t.Fatalf("saml job failed: %+v", st)
	}
	again := submitAndWait(t, ts.URL, `{"method":"saml","iterations":50,"seed":11}`)
	if !again.Cached {
		t.Fatalf("repeat saml job not warm-started")
	}
}

// TestStoreEviction keeps the store at its bound under distinct keys
// (single shard: exact global LRU, so the eviction count is exact).
func TestStoreEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueSize: 8})
	s.store = newStore(2, 1)
	s.runFn = func(req TuneRequest) (TuneResult, error) {
		return TuneResult{Method: req.Method}, nil
	}
	for seed := 1; seed <= 4; seed++ {
		st := submitAndWait(t, ts.URL, fmt.Sprintf(`{"method":"sam","seed":%d}`, seed))
		if st.State != JobDone {
			t.Fatalf("seed %d failed: %+v", seed, st)
		}
	}
	if m := s.Metrics(); m.Store.Entries > 2 || m.Store.Evictions != 2 {
		t.Fatalf("store bound not enforced: %+v", m.Store)
	}
}

// TestWarmHitStorm re-POSTs one job from many goroutines at once: every
// response body is byte-identical (warm hits are served stored bytes),
// exactly one compute is paid, and the store's paid count equals its
// unique-key count.
func TestWarmHitStorm(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, QueueSize: 8})
	var computes atomic.Int64
	s.runFn = func(req TuneRequest) (TuneResult, error) {
		computes.Add(1)
		return TuneResult{Method: req.Method, TimeSec: 1.25, EnergyJ: 80}, nil
	}
	body := `{"method":"sam","seed":42}`
	first := submitAndWait(t, ts.URL, body)
	if first.State != JobDone {
		t.Fatalf("cold job failed: %+v", first)
	}

	const n = 32
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d body %s", resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("storm POST %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("storm bodies differ:\n%s\n%s", bodies[0], bodies[i])
		}
	}
	var st JobStatus
	if err := json.Unmarshal(bodies[0], &st); err != nil {
		t.Fatalf("unmarshal storm body: %v", err)
	}
	if st.State != JobDone || !st.Cached || st.ID != "" || st.Result == nil {
		t.Fatalf("storm response not an inline warm hit: %+v", st)
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("paid %d computes, want exactly 1", got)
	}
	m := s.Metrics()
	if paid := m.Store.Lookups - m.Store.Hits; paid != 1 {
		t.Fatalf("store paid %d, want 1 (== unique keys): %+v", paid, m.Store)
	}
	if m.Jobs.StoreHits != n || m.Latency.Warm.Count != n {
		t.Fatalf("warm accounting: jobs=%+v latency=%+v", m.Jobs, m.Latency)
	}
}

// TestRepeatsShareInFlightJob submits repeats of several cold keys
// without waiting, at one and at four workers: a repeat that lands
// while its key is in flight shares that job through the pool, so
// every repeat is a store hit whether or not it answers inline.
func TestRepeatsShareInFlightJob(t *testing.T) {
	const distinct, repeats = 3, 3
	for _, workers := range []int{1, 4} {
		s, ts := newTestServer(t, Options{Workers: workers, QueueSize: distinct*repeats + 8})
		s.runFn = func(req TuneRequest) (TuneResult, error) {
			time.Sleep(time.Millisecond) // keep a key in flight while its repeats land
			return TuneResult{Method: req.Method, TimeSec: float64(req.Seed)}, nil
		}
		var ids []string
		inline := 0
		for i := 0; i < distinct*repeats; i++ {
			code, resp := post(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"method":"sam","seed":%d}`, i%distinct))
			var st JobStatus
			if err := json.Unmarshal(resp, &st); err != nil {
				t.Fatalf("workers %d POST %d: status %d body %s: %v", workers, i, code, resp, err)
			}
			switch {
			case code == http.StatusOK && st.ID == "" && st.State == JobDone:
				inline++
			case code == http.StatusAccepted && st.ID != "":
				ids = append(ids, st.ID)
			default:
				t.Fatalf("workers %d POST %d: status %d body %s", workers, i, code, resp)
			}
		}
		for _, id := range ids {
			if st := pollDone(t, ts.URL, id); st.State != JobDone {
				t.Fatalf("workers %d job %s: %+v", workers, id, st)
			}
		}
		m := s.Metrics()
		if m.Jobs.Completed != distinct*repeats || m.Jobs.StoreHits != distinct*repeats-distinct {
			t.Fatalf("workers %d: jobs %+v, want %d completed and %d store hits",
				workers, m.Jobs, distinct*repeats, distinct*repeats-distinct)
		}
		if int64(inline) > m.Jobs.StoreHits {
			t.Fatalf("workers %d: %d inline answers exceed %d store hits", workers, inline, m.Jobs.StoreHits)
		}
	}
}

// TestWaitInlineCompletion: ?wait=1 blocks a cold POST until the job's
// terminal state and answers 200 with the embedded result — while still
// registering the job for later GETs.
func TestWaitInlineCompletion(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueSize: 4})
	s.runFn = func(req TuneRequest) (TuneResult, error) {
		return TuneResult{Method: req.Method, TimeSec: 2.5}, nil
	}
	code, resp := post(t, ts.URL+"/v1/jobs?wait=1", `{"method":"sam","seed":7}`)
	if code != http.StatusOK {
		t.Fatalf("wait=1 POST: status %d body %s, want 200", code, resp)
	}
	var st JobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st.State != JobDone || st.Result == nil {
		t.Fatalf("wait=1 response not terminal: %+v", st)
	}
	if st.Cached {
		t.Fatalf("cold wait=1 job wrongly marked cached")
	}
	if st.ID == "" {
		t.Fatalf("wait=1 cold job must still be registered (no id)")
	}
	var g JobStatus
	getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &g)
	if g.State != JobDone {
		t.Fatalf("wait=1 job not pollable afterwards: %+v", g)
	}
}

// TestWaitedJobCountedBeforeRelease: a ?wait=1 client released by its
// job's completion finds that job already counted in the metrics.
func TestWaitedJobCountedBeforeRelease(t *testing.T) {
	s := New(Options{Workers: 2, QueueSize: 4})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	s.runFn = func(req TuneRequest) (TuneResult, error) {
		return TuneResult{Method: req.Method, TimeSec: 2.5}, nil
	}
	for seed := 1; seed <= 300; seed++ {
		before := s.Metrics().Jobs.Completed
		body := fmt.Sprintf(`{"method":"sam","seed":%d}`, seed)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d body %s", seed, rec.Code, rec.Body)
		}
		if after := s.Metrics().Jobs.Completed; after != before+1 {
			t.Fatalf("seed %d: completed %d -> %d right after the waited job returned, want +1", seed, before, after)
		}
	}
}

// TestMetricsLatencySplit: the warm/cold latency buckets partition the
// request latency accounting — counts and totals sum exactly to the
// top-level figures.
func TestMetricsLatencySplit(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, QueueSize: 8})
	s.runFn = func(req TuneRequest) (TuneResult, error) {
		time.Sleep(2 * time.Millisecond) // keep cold visibly slower than warm
		return TuneResult{Method: req.Method, TimeSec: 1}, nil
	}
	for seed := 1; seed <= 2; seed++ {
		st := submitAndWait(t, ts.URL, fmt.Sprintf(`{"method":"sam","seed":%d}`, seed))
		if st.State != JobDone {
			t.Fatalf("seed %d failed: %+v", seed, st)
		}
	}
	for i := 0; i < 3; i++ {
		code, resp := post(t, ts.URL+"/v1/jobs", `{"method":"sam","seed":1}`)
		if code != http.StatusOK {
			t.Fatalf("warm POST %d: status %d body %s", i, code, resp)
		}
	}
	m := s.Metrics()
	if m.Latency.Warm.Count != 3 || m.Latency.Cold.Count != 2 {
		t.Fatalf("bucket counts: %+v", m.Latency)
	}
	if m.Latency.Count != m.Latency.Warm.Count+m.Latency.Cold.Count {
		t.Fatalf("latency count %d != warm %d + cold %d", m.Latency.Count, m.Latency.Warm.Count, m.Latency.Cold.Count)
	}
	if m.Latency.TotalMS != m.Latency.Warm.TotalMS+m.Latency.Cold.TotalMS {
		t.Fatalf("latency total %g != warm %g + cold %g", m.Latency.TotalMS, m.Latency.Warm.TotalMS, m.Latency.Cold.TotalMS)
	}
	if m.Latency.Warm.MeanMS > m.Latency.Cold.MeanMS {
		t.Fatalf("warm mean %g above cold mean %g", m.Latency.Warm.MeanMS, m.Latency.Cold.MeanMS)
	}
}
