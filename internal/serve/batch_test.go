package serve

import (
	"encoding/json"
	"net/http"
	"testing"
)

// instantRun stands in for a tuning run: it answers at once, so a
// test can submit a full batch without paying any search.
func instantRun(req TuneRequest) (TuneResult, error) {
	return TuneResult{Method: req.Method, Objective: req.Objective}, nil
}

// capBatch is a batch of n weighted members expanded from template.
func capBatch(template TuneRequest, n int) BatchRequest {
	return BatchRequest{Template: &template, Alphas: make([]float64, n)}
}

// checkBatchAnswer asserts a batch answer of want statuses.
func checkBatchAnswer(t *testing.T, code int, body []byte, wantCode, want int) {
	t.Helper()
	if code != wantCode {
		t.Fatalf("status %d body %.200s, want %d", code, body, wantCode)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Jobs) != want {
		t.Fatalf("batch answered %d members, want %d", len(br.Jobs), want)
	}
}

// checkRefused asserts a 400 answer carrying the error envelope.
func checkRefused(t *testing.T, code int, body []byte) {
	t.Helper()
	if code != http.StatusBadRequest {
		t.Fatalf("status %d body %.200s, want 400", code, body)
	}
	var e errorJSON
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("400 body %q lacks an error envelope", body)
	}
}

// TestBatchMemberCap: a batch expanding to MaxBatchMembers requests is
// served member for member; one more member — by alphas, or by
// requests and alphas together — is refused with 400 before any member
// is submitted.
func TestBatchMemberCap(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, QueueSize: MaxBatchMembers})
	s.runFn = instantRun
	template := TuneRequest{Method: "sam", Iterations: 40, Seed: 3}

	code, body := post(t, ts.URL+"/v1/jobs:batch", capBatch(template, MaxBatchMembers+1))
	checkRefused(t, code, body)
	mixed := capBatch(template, MaxBatchMembers)
	mixed.Requests = []TuneRequest{template}
	code, body = post(t, ts.URL+"/v1/jobs:batch", mixed)
	checkRefused(t, code, body)
	if m := s.Metrics(); m.Jobs.Submitted != 0 {
		t.Fatalf("refused batches submitted %d jobs", m.Jobs.Submitted)
	}

	code, body = post(t, ts.URL+"/v1/jobs:batch", capBatch(template, MaxBatchMembers))
	checkBatchAnswer(t, code, body, http.StatusAccepted, MaxBatchMembers)
}

// TestClusterBatchMemberCap: on a 3-node cluster the cap holds on the
// scatter path too. A batch of MaxBatchMembers members is merged member
// for member; one more member is refused with 400 and scatters
// nothing: no peer sees a request and no node submits a job.
func TestClusterBatchMemberCap(t *testing.T) {
	servers, urls := newTestCluster(t, 3, func(o *Options) { o.QueueSize = MaxBatchMembers })
	for _, s := range servers {
		s.runFn = instantRun
	}
	// Every member of the accepted batch is owned by the node it is
	// sent to, so the sweep fans out over goroutines, not sockets.
	var template TuneRequest
	for seed := int64(1); ; seed++ {
		template = TuneRequest{Method: "sam", Iterations: 40, Seed: seed}
		member := template
		member.Objective = "weighted"
		canon, err := member.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := servers[0].cluster.router.Ring().Lookup([]byte(canon.Key())); owner == urls[0] {
			break
		}
	}

	code, body := post(t, urls[0]+"/v1/jobs:batch", capBatch(template, MaxBatchMembers+1))
	checkRefused(t, code, body)
	for i, s := range servers {
		m := s.Metrics()
		peerBatches := m.Requests["batch"]
		if i == 0 {
			peerBatches-- // the refused batch itself
		}
		if m.Jobs.Submitted != 0 || m.Cluster.Scattered != 0 || m.Requests["jobs"] != 0 || peerBatches != 0 {
			t.Fatalf("node %d acted on a refused batch: jobs %+v, cluster %+v, requests %v", i, m.Jobs, m.Cluster, m.Requests)
		}
	}

	code, body = post(t, urls[0]+"/v1/jobs:batch", capBatch(template, MaxBatchMembers))
	checkBatchAnswer(t, code, body, http.StatusOK, MaxBatchMembers)
}
