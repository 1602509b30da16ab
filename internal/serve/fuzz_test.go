package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzNormalize fuzzes request canonicalization with two properties the
// warm-start store depends on:
//
//  1. Normalize is idempotent: normalizing a canonical request returns
//     it unchanged (same struct, same key).
//  2. Key-equal requests have identical normalized forms: a respelled
//     variant of the same request (case, surrounding whitespace) must
//     canonicalize to the very same struct, never to a different
//     request that happens to share the key.
//
// The seed corpus covers every name axis: scenario workloads, genome
// aliases, platforms, methods, strategies and all four objectives.
func FuzzNormalize(f *testing.F) {
	seeds := []struct {
		workload, platform, genome, method, strat, objective string
		alpha, slack, sizeMB                                 float64
		iters, restarts                                      int
		seed                                                 int64
	}{
		{"", "", "", "", "", "", 0, 0, 0, 0, 0, 0},
		{"dna:human", "paper", "", "saml", "auto", "time", 0, 0, 0, 1000, 1, 1},
		{"human", "", "", "sam", "anneal", "energy", 0, 0, 0, 500, 2, 7},
		{"", "", "mouse", "em", "exhaustive", "time", 0, 0, 0, 0, 0, 0},
		{"spmv", "gpu-like", "", "eml", "portfolio", "weighted", 0.5, 0, 0, 250, 4, 3},
		{"stencil:large", "edge", "", "sam", "genetic", "bounded", 0, 0.1, 0, 100, 1, 9},
		{"crypto:small", "paper", "", "sam", "tabu", "time", 0, 0, 512, 300, 1, 2},
		{"SPMV:LARGE", "EDGE", "", "SAM", "LOCAL", "ENERGY", 0, 0, 0, 0, 0, -5},
		{"unknown-workload", "unknown-platform", "", "bad", "bad", "bad", -1, -1, -1, -1, -1, 0},
		{" dna ", " paper ", "", " sam ", " random ", " time ", 2, 5, 1.5, 10, 10, 10},
		{"dag:resnet-ish", "gpu-like", "", "em", "exhaustive", "time", 0, 0, 0, 0, 0, 0},
		{"DAG:FORK-JOIN", "edge", "", "SAML", "anneal", "", 0, 0, 0, 200, 2, 5},
		{"sparse-solver", "", "", "sam", "auto", "time", 0, 0, 0, 300, 1, 11},
		{"dag:resnet-ish", "paper", "", "em", "", "energy", 0, 0, 0, 0, 0, 0},
	}
	for _, s := range seeds {
		f.Add(s.workload, s.platform, s.genome, s.method, s.strat, s.objective,
			s.alpha, s.slack, s.sizeMB, s.iters, s.restarts, s.seed)
	}
	f.Fuzz(func(t *testing.T, workload, platform, genome, method, strat, objective string,
		alpha, slack, sizeMB float64, iters, restarts int, seed int64) {
		r := TuneRequest{
			Workload: workload, Platform: platform, Genome: genome,
			Method: method, Strategy: strat, Objective: objective,
			Alpha: alpha, Slack: slack, SizeMB: sizeMB,
			Iterations: iters, Restarts: restarts, Seed: seed,
		}
		n, err := r.Normalize()
		if err != nil {
			return // invalid requests are rejected, not canonicalized
		}

		// Idempotence: canonical forms are fixed points.
		n2, err := n.Normalize()
		if err != nil {
			t.Fatalf("canonical request rejected on re-normalization: %+v: %v", n, err)
		}
		if n2 != n {
			t.Fatalf("Normalize not idempotent:\nonce  %+v\ntwice %+v", n, n2)
		}
		if n2.Key() != n.Key() {
			t.Fatalf("key changed across re-normalization: %q vs %q", n.Key(), n2.Key())
		}

		// A respelled variant of the same request (case and whitespace)
		// must normalize to the identical struct — key-equal requests
		// always share one canonical form.
		v := r
		v.Workload = "  " + strings.ToUpper(r.Workload) + " "
		v.Platform = strings.ToUpper(r.Platform) + "\t"
		v.Genome = " " + strings.ToUpper(r.Genome)
		v.Method = strings.ToLower(r.Method)
		v.Strategy = strings.ToUpper(r.Strategy)
		v.Objective = " " + strings.ToUpper(r.Objective) + " "
		nv, err := v.Normalize()
		if err != nil {
			t.Fatalf("respelled variant of a valid request rejected: %+v: %v", v, err)
		}
		if nv != n {
			t.Fatalf("respelled variant canonicalized differently:\noriginal %+v\nvariant  %+v", n, nv)
		}
		if nv.Key() != n.Key() {
			t.Fatalf("respelled variant keyed differently: %q vs %q", n.Key(), nv.Key())
		}
	})
}

// FuzzReplicate fuzzes POST /v1/cluster/replicate, whose payload comes
// straight from a peer. The handler never panics; it answers 200 only
// for a payload holding exactly one JSON value, and applied:true only
// for a payload whose body decodes to a done
// JobStatus carrying a result and the payload's key, after which
// PeekWarm(key) serves that body verbatim. Any other payload leaves
// the store's size unchanged.
func FuzzReplicate(f *testing.F) {
	const self = "http://127.0.0.1:1"
	s, err := NewCluster(Options{Workers: 1, QueueSize: 1, Cluster: &ClusterOptions{NodeID: self, Peers: []string{self}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Drain(context.Background()) })
	canon, err := TuneRequest{Method: "sam", Iterations: 40, Seed: 1}.Normalize()
	if err != nil {
		f.Fatal(err)
	}
	key := canon.Key()
	body := string(renderWarmBody(canon, key, TuneResult{Method: "SAM", TimeSec: 1.25, EnergyJ: 80}))
	wire := func(key, body string) []byte {
		b, err := json.Marshal(replicateWire{Key: key, Body: body})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for _, seed := range [][]byte{
		wire(key, body),
		wire("other", body),
		wire(key, strings.Replace(body, `"state":"done"`, `"state":"running"`, 1)),
		wire(key, `{"state":"done","key":"`+key+`"}`),
		wire(key, `{"state":"done","key":"`+key+`","result":{}}`),
		wire("", body),
		wire(key, ""),
		wire(key, "not json"),
		[]byte(`{"key":"k","body":"{}","extra":1}`),
		[]byte(`{"key":`),
		[]byte(``),
		append(wire(key, body), '}'),
		append(wire(key, body), wire(key, body)...),
		append(wire(key, body), '\n'),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		// A fresh store per input keeps each run's path a function of
		// the payload alone.
		s.store = NewStore(0)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/replicate", bytes.NewReader(payload)))
		var ans struct {
			Applied bool `json:"applied"`
		}
		if rec.Code == http.StatusOK {
			if !json.Valid(payload) {
				t.Fatalf("200 for payload %q, which is not exactly one JSON value", payload)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
				t.Fatalf("200 answer %q does not decode: %v", rec.Body.Bytes(), err)
			}
		}
		if !ans.Applied {
			if n := s.store.Len(); n != 0 {
				t.Fatalf("payload %q not applied, yet the store holds %d entries", payload, n)
			}
			return
		}
		var msg replicateWire
		if err := json.NewDecoder(bytes.NewReader(payload)).Decode(&msg); err != nil {
			t.Fatalf("applied a payload that does not decode: %q: %v", payload, err)
		}
		var st JobStatus
		if err := json.Unmarshal([]byte(msg.Body), &st); err != nil || st.State != JobDone || st.Result == nil || st.Key != msg.Key {
			t.Fatalf("applied body %q for key %q: not a done status of that key (err %v)", msg.Body, msg.Key, err)
		}
		got, _, ok := s.store.PeekWarm([]byte(msg.Key))
		if !ok || string(got) != msg.Body {
			t.Fatalf("after apply, PeekWarm(%q) = %q, %v; want the body verbatim", msg.Key, got, ok)
		}
		if n := s.store.Len(); n != 1 {
			t.Fatalf("apply left the store with %d entries, want 1", n)
		}
	})
}

// fuzzServer is a single-node server whose runs answer at once, so a
// fuzzer drives the decode, normalize and submit paths without tuning.
// The store is bounded so a long fuzz run holds a bounded set of
// results.
func fuzzServer(f *testing.F) *Server {
	s := New(Options{Workers: 1, QueueSize: 64, StoreSize: 64})
	s.runFn = instantRun
	f.Cleanup(func() { _ = s.Drain(context.Background()) })
	return s
}

// decodeStrict decodes body into v as the only JSON value it holds,
// rejecting unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// checkAnswer asserts the contract every submission answer to body
// keeps: a known status, a 2xx only for a body holding exactly one JSON
// value, and the error envelope on every non-2xx answer. It reports
// whether the answer was a 2xx.
func checkAnswer(t *testing.T, rec *httptest.ResponseRecorder, body []byte) bool {
	t.Helper()
	switch rec.Code {
	case http.StatusOK, http.StatusAccepted:
		if !json.Valid(body) {
			t.Fatalf("status %d for %q, which is not exactly one JSON value", rec.Code, body)
		}
		return true
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		var e errorJSON
		if err := decodeStrict(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("status %d body %q is not the error envelope (err %v)", rec.Code, rec.Body.Bytes(), err)
		}
		return false
	default:
		t.Fatalf("unexpected status %d, body %q", rec.Code, rec.Body.Bytes())
		return false
	}
}

// submissionSeeds are request bodies shared by the jobs and batch
// fuzzers: golden bodies, and the malformed shapes a decoder must
// refuse cleanly.
var submissionSeeds = []string{
	`{"genome":"human","method":"sam","iterations":300,"seed":9}`,
	`{"seed":9,"method":"SAM","iterations":300,"genome":"Human"}`,
	`{"workload":"dna:human","method":"em","strategy":"exact","prove":true,"pool_size":3}`,
	`{"workload":"dag:fork-join","method":"em","strategy":"exact","prove":true,"pool_size":2}`,
	`{"workload":"dag:resnet-ish","platform":"gpu-like","method":"em","seed":4}`,
	`{"workload":"spmv","platform":"edge","method":"sam","iterations":80,"seed":3}`,
	`{"workload":"dag:resnet-ish","objective":"bounded","slack":0.1}`,
	`{"genom":"human"}`,
	`{"method":"sam"} trailing`,
	`{"method":"sam"}{"method":"em"}`,
	`{"method":"sam"}}`,
	`{"method":"sam"}]`,
	"{\"method\":\"sam\"}\n",
	" \n\t",
	`{"workload":"dna:human","genome":"human"}`,
	`{"objective":"weighted","alpha":2}`,
	`{"genome":`,
	``,
	`null`,
	`[]`,
}

// FuzzCreateJob fuzzes POST /v1/jobs (with and without ?wait=1): the
// handler never panics, answers 200, 202, 400, 413 or 429, answers 2xx
// only to a body holding exactly one JSON value, wraps every error in
// the {"error":...} envelope, and every 2xx body strictly decodes into
// one JobStatus.
func FuzzCreateJob(f *testing.F) {
	s := fuzzServer(f)
	for _, seed := range submissionSeeds {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, wait bool) {
		url := "/v1/jobs"
		if wait {
			url += "?wait=1"
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		if !checkAnswer(t, rec, body) {
			return
		}
		var st JobStatus
		if err := decodeStrict(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("%d body %q does not decode into a JobStatus: %v", rec.Code, rec.Body.Bytes(), err)
		}
	})
}

// FuzzBatch fuzzes POST /v1/jobs:batch: besides FuzzCreateJob's status
// and envelope contract, every 2xx body strictly decodes into a
// BatchResponse holding exactly one status per expanded member, and
// never more than MaxBatchMembers.
func FuzzBatch(f *testing.F) {
	s := fuzzServer(f)
	for _, seed := range submissionSeeds {
		f.Add([]byte(`{"requests":[` + seed + `]}`))
		f.Add([]byte(`{"template":` + seed + `,"alphas":[0,0.5,1]}`))
	}
	over, err := json.Marshal(capBatch(TuneRequest{Method: "sam"}, MaxBatchMembers+1))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{"template":{"method":"sam","iterations":40,"seed":3},"alphas":[0,0.5,1]}`,
		`{"requests":[{"method":"sam"},{"genome":"plankton"}]}`,
		`{"requests":[{"method":"sam","seed":1}],"template":{"method":"em"},"alphas":[0.25]}`,
		`{"alphas":[0.5]}`,
		`{"alphas":[0.5],"extra":true}`,
		`{}`,
		`{"requests":[{"method":"sam"}]} trailing`,
		`{"requests":[{"method":"sam"}]}{"requests":[{"method":"em"}]}`,
		`{"requests":[{"method":"sam"}]}}`,
		`{"requests":[{"method":"sam"}]}]`,
		"{\"requests\":[{\"method\":\"sam\"}]}\n",
		string(over),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs:batch", bytes.NewReader(body)))
		if !checkAnswer(t, rec, body) {
			return
		}
		var resp BatchResponse
		if err := decodeStrict(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%d body %q does not decode into a BatchResponse: %v", rec.Code, rec.Body.Bytes(), err)
		}
		// The server accepted the body, so its one JSON value is the
		// batch it expanded.
		var batch BatchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&batch); err != nil {
			t.Fatalf("accepted batch %q does not decode: %v", body, err)
		}
		want := len(batch.Requests) + len(batch.Alphas)
		if len(resp.Jobs) != want || want > MaxBatchMembers {
			t.Fatalf("batch of %d members answered %d statuses (cap %d)", want, len(resp.Jobs), MaxBatchMembers)
		}
	})
}
