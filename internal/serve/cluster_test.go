package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// swapServer lets a test learn each cluster member's URL before its
// Server exists: every member's peer list names every member's URL, so
// the listeners must bind first. It answers 503 until the real server
// is swapped in.
type swapServer struct {
	s atomic.Pointer[Server]
}

func (sw *swapServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s := sw.s.Load(); s != nil {
		s.ServeHTTP(w, r)
		return
	}
	http.Error(w, "cluster member not ready", http.StatusServiceUnavailable)
}

// newTestCluster builds an n-node in-process cluster: n real listeners
// over n Servers configured with each other as peers. Returns the
// servers and their base URLs (index-aligned).
func newTestCluster(t *testing.T, n int, mut func(o *Options)) ([]*Server, []string) {
	t.Helper()
	servers, urls, _ := newTestClusterListeners(t, n, mut)
	return servers, urls
}

// newTestClusterListeners is newTestCluster also returning each
// member's listener, so a test can stop a node mid-run.
func newTestClusterListeners(t *testing.T, n int, mut func(o *Options)) ([]*Server, []string, []*httptest.Server) {
	t.Helper()
	swaps := make([]*swapServer, n)
	listeners := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range swaps {
		swaps[i] = &swapServer{}
		listeners[i] = httptest.NewServer(swaps[i])
		urls[i] = listeners[i].URL
	}
	servers := make([]*Server, n)
	for i := range servers {
		opt := Options{
			Workers:   2,
			QueueSize: 16,
			Cluster: &ClusterOptions{
				NodeID:    urls[i],
				Peers:     urls,
				Replicate: true,
			},
		}
		if mut != nil {
			mut(&opt)
		}
		s, err := NewCluster(opt)
		if err != nil {
			t.Fatalf("building cluster member %d: %v", i, err)
		}
		servers[i] = s
		swaps[i].s.Store(s)
	}
	t.Cleanup(func() {
		for _, l := range listeners {
			l.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, s := range servers {
			_ = s.Drain(ctx)
		}
	})
	return servers, urls, listeners
}

// requestOwnedBy sweeps seeds until the canonical key is owned by the
// wanted node on any member's ring (all rings agree), returning the
// canonical request, its key and the marshaled POST body.
func requestOwnedBy(t *testing.T, s *Server, owner string) (TuneRequest, string, []byte) {
	t.Helper()
	for seed := int64(1); seed < 4096; seed++ {
		raw := TuneRequest{Method: "sam", Iterations: 40, Seed: seed}
		canon, err := raw.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		key := canon.Key()
		if o, _ := s.cluster.router.Ring().Lookup([]byte(key)); o == owner {
			body, merr := json.Marshal(canon)
			if merr != nil {
				t.Fatal(merr)
			}
			return canon, key, body
		}
	}
	t.Fatalf("no seed under 4096 hashes to owner %s", owner)
	return TuneRequest{}, "", nil
}

// waitReplicated polls until s's store holds key (the async replicator
// delivered it) or the deadline passes.
func waitReplicated(t *testing.T, s *Server, key string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, ok := s.store.PeekWarm([]byte(key)); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %q never replicated to %s", key, s.cluster.router.Self())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// postRaw POSTs pre-marshaled bytes and returns status + body bytes.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

// TestClusterForwardByteIdentical is the tentpole determinism
// contract: once a key is computed anywhere in the cluster, every node
// answers it with byte-identical response bytes — the owner from its
// store, the follower from its replica, and any other node by
// streaming the owner's bytes through one forwarded hop — and the
// whole sweep pays exactly one compute cluster-wide.
func TestClusterForwardByteIdentical(t *testing.T) {
	servers, urls := newTestCluster(t, 3, nil)
	_, key, body := requestOwnedBy(t, servers[0], urls[0])
	owner, follower := servers[0].cluster.router.Ring().Lookup([]byte(key))
	if owner != urls[0] {
		t.Fatalf("requestOwnedBy returned a key owned by %s", owner)
	}

	// Cold compute on the owner (inline completion), then wait for the
	// async replica to land on the follower.
	code, cold := postRaw(t, urls[0]+"/v1/jobs?wait=1", body)
	if code != http.StatusOK {
		t.Fatalf("cold wait POST: status %d body %s", code, cold)
	}
	var coldSt JobStatus
	if err := json.Unmarshal(cold, &coldSt); err != nil || coldSt.State != JobDone {
		t.Fatalf("cold wait answer not done: %s (err %v)", cold, err)
	}
	for i, u := range urls {
		if u == follower {
			waitReplicated(t, servers[i], key)
		}
	}

	// The same POST to every node now answers warm with identical
	// bytes: locally on owner and follower, via one forwarded hop on
	// the third node.
	answers := make([][]byte, len(urls))
	for i, u := range urls {
		code, b := postRaw(t, u+"/v1/jobs", body)
		if code != http.StatusOK {
			t.Fatalf("warm POST to node %d: status %d body %s", i, code, b)
		}
		answers[i] = b
	}
	for i := 1; i < len(answers); i++ {
		if !bytes.Equal(answers[0], answers[i]) {
			t.Fatalf("node %d answer differs:\n%s\n%s", i, answers[0], answers[i])
		}
	}
	// The cold answer carries the job id, but its result bytes match.
	w1, _ := json.Marshal(coldSt.Result)
	var warmSt JobStatus
	if err := json.Unmarshal(answers[0], &warmSt); err != nil {
		t.Fatal(err)
	}
	w2, _ := json.Marshal(warmSt.Result)
	if !bytes.Equal(w1, w2) {
		t.Fatalf("warm result bytes differ from the cold compute:\n%s\n%s", w1, w2)
	}

	// Exactly one compute was paid cluster-wide: completed minus
	// store-served across every node is 1.
	computes := int64(0)
	for _, s := range servers {
		m := s.Metrics()
		computes += m.Jobs.Completed - m.Jobs.StoreHits
	}
	if computes != 1 {
		t.Fatalf("cluster paid %d computes, want exactly 1", computes)
	}
	// The non-owner non-follower node answered by forwarding.
	for i, u := range urls {
		if u == owner || u == follower {
			continue
		}
		m := servers[i].Metrics()
		if m.Cluster == nil || m.Cluster.Forwarded != 1 {
			t.Fatalf("third node metrics: %+v, want forwarded=1", m.Cluster)
		}
	}
}

// TestClusterColdForwardComputesOnce POSTs cold keys that node 0 does
// not own, each twice to node 0 with ?wait=1 (the first forward
// computes, the second hits): the cluster pays one compute per
// distinct key, on its owner, and none on node 0.
func TestClusterColdForwardComputesOnce(t *testing.T) {
	servers, urls := newTestCluster(t, 3, nil)
	distinct := 0
	for seed := int64(1); distinct < 5; seed++ {
		canon, err := TuneRequest{Method: "sam", Iterations: 30, Seed: seed}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if o, _ := servers[0].cluster.router.Ring().Lookup([]byte(canon.Key())); o == urls[0] {
			continue
		}
		b, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			if code, resp := postRaw(t, urls[0]+"/v1/jobs?wait=1", b); code != http.StatusOK {
				t.Fatalf("cold key %d forwarded: status %d body %s", seed, code, resp)
			}
		}
		distinct++
	}
	computes := int64(0)
	for i, s := range servers {
		m := s.Metrics()
		paid := m.Jobs.Completed - m.Jobs.StoreHits
		if i == 0 && paid != 0 {
			t.Fatalf("node 0 paid %d computes, want 0: it owns none of the keys", paid)
		}
		computes += paid
	}
	if computes != int64(distinct) {
		t.Fatalf("cluster paid %d computes for %d distinct keys", computes, distinct)
	}
}

// TestClusterFailoverServesWarm: after the owner dies, a POST to a
// node holding no replica fails over to the key's follower and still
// answers warm — with the owner's exact bytes.
func TestClusterFailoverServesWarm(t *testing.T) {
	swaps := make([]*swapServer, 3)
	listeners := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	for i := range swaps {
		swaps[i] = &swapServer{}
		listeners[i] = httptest.NewServer(swaps[i])
		urls[i] = listeners[i].URL
	}
	servers := make([]*Server, 3)
	for i := range servers {
		s, err := NewCluster(Options{
			Workers:   2,
			QueueSize: 16,
			Cluster:   &ClusterOptions{NodeID: urls[i], Peers: urls, Replicate: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		swaps[i].s.Store(s)
	}
	t.Cleanup(func() {
		for _, l := range listeners {
			l.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, s := range servers {
			_ = s.Drain(ctx)
		}
	})

	_, key, body := requestOwnedBy(t, servers[0], urls[0])
	_, follower := servers[0].cluster.router.Ring().Lookup([]byte(key))

	code, warm := postRaw(t, urls[0]+"/v1/jobs?wait=1", body)
	if code != http.StatusOK {
		t.Fatalf("cold wait POST: status %d", code)
	}
	var fIdx, tIdx int
	for i, u := range urls {
		switch u {
		case urls[0]:
		case follower:
			fIdx = i
		default:
			tIdx = i
		}
	}
	waitReplicated(t, servers[fIdx], key)
	// Warm answer bytes as the owner serves them (for the byte-identity
	// check after the failover).
	code, ownerWarm := postRaw(t, urls[0]+"/v1/jobs", body)
	if code != http.StatusOK {
		t.Fatalf("owner warm POST: status %d", code)
	}

	listeners[0].Close() // the owner dies

	// The third node holds no replica: it must fail over to the
	// follower and stream the replicated bytes through.
	code, failover := postRaw(t, urls[tIdx]+"/v1/jobs", body)
	if code != http.StatusOK {
		t.Fatalf("failover POST: status %d body %s", code, failover)
	}
	if !bytes.Equal(failover, ownerWarm) {
		t.Fatalf("failover answer differs from the owner's warm bytes:\n%s\n%s", failover, ownerWarm)
	}
	_ = warm
	m := servers[tIdx].Metrics()
	if m.Cluster == nil || m.Cluster.Failover != 1 {
		t.Fatalf("third node cluster metrics %+v, want failover=1", m.Cluster)
	}
	if m.Cluster.Forwarded != 1 {
		t.Fatalf("failover answer must still count as forwarded, got %+v", m.Cluster)
	}
	// The dead owner is now marked down on the router.
	if servers[tIdx].cluster.router.Up(urls[0]) {
		t.Fatal("dead owner still marked up after a failed forward")
	}
}

// TestMetricsClusterSplit mirrors the latency-split test: on every
// node, the cluster block's local+forwarded partition the jobs
// endpoint's request count exactly — warm hits, cold computes, error
// answers and proxied-in requests all land in exactly one bucket.
func TestMetricsClusterSplit(t *testing.T) {
	servers, urls := newTestCluster(t, 2, nil)

	// One request owned by each node, both posted to node 0: the first
	// computes locally, the second forwards to node 1. Node IDs are
	// random test URLs, so the seeds are picked by ring ownership.
	for _, owner := range urls {
		req, _, body := requestOwnedBy(t, servers[0], owner)
		if code, b := postRaw(t, urls[0]+"/v1/jobs?wait=1", body); code != http.StatusOK {
			t.Fatalf("seed %d (owner %s): status %d body %s", req.Seed, owner, code, b)
		}
	}
	// An error answer (malformed body) counts local too.
	if code, _ := postRaw(t, urls[0]+"/v1/jobs", []byte(`{"method":`)); code != http.StatusBadRequest {
		t.Fatalf("malformed POST accepted")
	}

	for i, s := range servers {
		m := s.Metrics()
		if m.Cluster == nil {
			t.Fatalf("node %d: no cluster block", i)
		}
		if got, want := m.Cluster.Local+m.Cluster.Forwarded, m.Requests["jobs"]; got != want {
			t.Fatalf("node %d: local %d + forwarded %d = %d, want the request count %d",
				i, m.Cluster.Local, m.Cluster.Forwarded, got, want)
		}
	}
	m0 := servers[0].Metrics()
	if m0.Cluster.Forwarded == 0 || m0.Cluster.Local == 0 {
		t.Fatalf("one request per owner should split both ways, got local=%d forwarded=%d",
			m0.Cluster.Local, m0.Cluster.Forwarded)
	}

	// The wire shape: node id, both peers up, replication accounting.
	var wire Metrics
	if code := getJSON(t, urls[0]+"/v1/metrics", &wire); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if wire.Cluster == nil || wire.Cluster.NodeID != urls[0] || len(wire.Cluster.Peers) != 2 {
		t.Fatalf("wire cluster block %+v", wire.Cluster)
	}
	for _, p := range wire.Cluster.Peers {
		if !p.Up {
			t.Fatalf("peer %s reported down on a healthy cluster", p.Node)
		}
	}

	// Single-node servers stay clean: no cluster block in memory or on
	// the wire (the single-node wire bytes are unchanged by this PR).
	_, ts := newTestServer(t, Options{Workers: 1, QueueSize: 4})
	var raw map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/metrics", &raw)
	if _, ok := raw["cluster"]; ok {
		t.Fatal("single-node /v1/metrics grew a cluster block")
	}
}

// TestClusterScatterBatch: a batch POSTed to one node fans its members
// out across the cluster and merges a fully terminal response in
// expansion order — no member is left queued behind a job id on some
// other node.
func TestClusterScatterBatch(t *testing.T) {
	servers, urls := newTestCluster(t, 3, nil)
	batch := BatchRequest{
		Template: &TuneRequest{Method: "sam", Iterations: 40, Seed: 3},
		Alphas:   []float64{0, 0.25, 0.5, 0.75, 1},
	}
	code, resp := post(t, urls[0]+"/v1/jobs:batch", batch)
	if code != http.StatusOK {
		t.Fatalf("cluster batch: status %d body %s", code, resp)
	}
	var br BatchResponse
	if err := json.Unmarshal(resp, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Jobs) != len(batch.Alphas) {
		t.Fatalf("batch answered %d members, want %d", len(br.Jobs), len(batch.Alphas))
	}
	for i, j := range br.Jobs {
		if j.State != JobDone || j.Result == nil {
			t.Fatalf("member %d not terminal-done: %+v", i, j)
		}
		want := fmt.Sprintf("weighted(alpha=%g)", batch.Alphas[i])
		if j.Result.Objective != want {
			t.Fatalf("member %d objective %q, want %q (merge order broken)", i, j.Result.Objective, want)
		}
	}
	// The members were spread: at least one computed away from node 0,
	// and node 0 proxied it (scattered counter).
	m0 := servers[0].Metrics()
	if m0.Cluster.Scattered == 0 {
		t.Fatalf("5-alpha batch scattered no members: %+v", m0.Cluster)
	}
	total := int64(0)
	for _, s := range servers {
		m := s.Metrics()
		total += m.Jobs.Completed - m.Jobs.StoreHits
	}
	if total != int64(len(batch.Alphas)) {
		t.Fatalf("cluster paid %d computes for %d distinct members", total, len(batch.Alphas))
	}

	// Re-POST: every member is warm now, wherever it lives.
	code, resp = post(t, urls[1]+"/v1/jobs:batch", batch)
	if code != http.StatusOK {
		t.Fatalf("batch re-POST: status %d", code)
	}
	if err := json.Unmarshal(resp, &br); err != nil {
		t.Fatal(err)
	}
	for i, j := range br.Jobs {
		if j.State != JobDone || !j.Cached {
			t.Fatalf("re-POSTed member %d not warm: %+v", i, j)
		}
	}
}

// TestClusterScatterFailover: a batch member whose owner is down is
// answered by its follower from the owner's replicated result (one
// failover, one scattered member); with owner and follower both down
// it is computed locally, byte-identical to a single-node run.
func TestClusterScatterFailover(t *testing.T) {
	servers, urls, listeners := newTestClusterListeners(t, 3, nil)
	req, key, body := requestOwnedBy(t, servers[0], urls[0])
	_, follower := servers[0].cluster.router.Ring().Lookup([]byte(key))
	var fIdx, tIdx int
	for i, u := range urls[1:] {
		if u == follower {
			fIdx = i + 1
		} else {
			tIdx = i + 1
		}
	}

	code, cold := postRaw(t, urls[0]+"/v1/jobs?wait=1", body)
	var coldSt JobStatus
	if err := json.Unmarshal(cold, &coldSt); err != nil || code != http.StatusOK || coldSt.State != JobDone {
		t.Fatalf("cold compute on the owner: status %d body %s (err %v)", code, cold, err)
	}
	ownerResult, _ := json.Marshal(coldSt.Result)
	waitReplicated(t, servers[fIdx], key)

	batch := BatchRequest{Requests: []TuneRequest{req}}
	member := func() JobStatus {
		t.Helper()
		code, resp := post(t, urls[tIdx]+"/v1/jobs:batch", batch)
		var br BatchResponse
		if err := json.Unmarshal(resp, &br); err != nil || code != http.StatusOK || len(br.Jobs) != 1 {
			t.Fatalf("batch on node %d: status %d body %s (err %v)", tIdx, code, resp, err)
		}
		return br.Jobs[0]
	}
	computes := func(s *Server) int64 {
		m := s.Metrics()
		return m.Jobs.Completed - m.Jobs.StoreHits
	}

	listeners[0].Close() // the owner dies
	st := member()
	got, _ := json.Marshal(st.Result)
	if st.State != JobDone || !st.Cached || !bytes.Equal(got, ownerResult) {
		t.Fatalf("follower answer %+v, want the owner's replicated result %s", st, ownerResult)
	}
	m := servers[tIdx].Metrics()
	if m.Cluster.Failover != 1 || m.Cluster.Scattered != 1 || computes(servers[tIdx]) != 0 {
		t.Fatalf("after follower failover: %+v, %d local computes; want failover=1 scattered=1, none local",
			m.Cluster, computes(servers[tIdx]))
	}

	listeners[fIdx].Close() // the follower dies too
	st = member()
	got, _ = json.Marshal(st.Result)
	if st.State != JobDone || st.Cached {
		t.Fatalf("member with owner and follower down: %+v, want a fresh local compute", st)
	}
	_, single := newTestServer(t, Options{Workers: 2, QueueSize: 16})
	code, alone := postRaw(t, single.URL+"/v1/jobs?wait=1", body)
	var aloneSt JobStatus
	if err := json.Unmarshal(alone, &aloneSt); err != nil || code != http.StatusOK {
		t.Fatalf("single-node compute: status %d body %s (err %v)", code, alone, err)
	}
	want, _ := json.Marshal(aloneSt.Result)
	if !bytes.Equal(got, want) {
		t.Fatalf("local fallback result differs from a single-node run:\n%s\n%s", got, want)
	}
	m = servers[tIdx].Metrics()
	if m.Cluster.Failover != 2 || m.Cluster.Scattered != 1 || computes(servers[tIdx]) != 1 {
		t.Fatalf("after local fallback: %+v, %d local computes; want failover=2 scattered=1, one local",
			m.Cluster, computes(servers[tIdx]))
	}
}

// TestStoreInstall pins the replica-apply semantics: install onto a
// fresh key wins and disarms the single-flight slot; any existing
// entry — the owner's own compute — wins over a late replica.
func TestStoreInstall(t *testing.T) {
	st := NewStore(8)
	res := TuneResult{Method: "SAM", TimeSec: 1.5, EnergyJ: 60}
	body := []byte(`{"state":"done"}` + "\n")
	if !st.Install("k1", res, body) {
		t.Fatal("install onto a fresh key refused")
	}
	if st.Install("k1", TuneResult{Method: "EM"}, []byte("other")) {
		t.Fatal("install over an existing entry must lose")
	}
	b, got, ok := st.PeekWarm([]byte("k1"))
	if !ok || !bytes.Equal(b, body) || got.Method != "SAM" {
		t.Fatalf("peek after install: ok=%v body=%q res=%+v", ok, b, got)
	}
	// The installed slot never recomputes: Do returns the replica as a
	// hit without calling the compute function.
	r2, err, hit := st.Do("k1", func() (TuneResult, []byte, error) {
		t.Fatal("Do recomputed an installed key")
		return TuneResult{}, nil, nil
	})
	if err != nil || !hit || r2.Method != "SAM" {
		t.Fatalf("Do on installed key: %+v %v hit=%v", r2, err, hit)
	}
}

// TestBlackholedFollowerNeverBlocksWarmPath pins replication off the
// request path at the serve layer: with the key's follower accepting
// connections but never answering, the cold compute and every warm hit
// still answer promptly — replication rides a bounded async queue,
// never the request path.
func TestBlackholedFollowerNeverBlocksWarmPath(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	blackhole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // swallow replication POSTs without ever answering
	}))
	// LIFO: unblock must run before Close — the black hole's handler
	// goroutines only return once release closes.
	defer blackhole.Close()
	defer unblock()

	sw := &swapServer{}
	self := httptest.NewServer(sw)
	defer self.Close()
	peers := []string{self.URL, blackhole.URL}
	s, err := NewCluster(Options{
		Workers:   2,
		QueueSize: 16,
		Cluster:   &ClusterOptions{NodeID: self.URL, Peers: peers, Replicate: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw.s.Store(s)
	// Unblock the black hole before draining: the replicator's Close
	// waits for the in-flight delivery, which only ends when release
	// closes (or the 5s replication timeout fires).
	t.Cleanup(func() {
		unblock()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})

	_, key, body := requestOwnedBy(t, s, self.URL)
	_ = key

	start := time.Now()
	code, _ := postRaw(t, self.URL+"/v1/jobs?wait=1", body)
	coldLatency := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("cold POST: status %d", code)
	}
	for i := 0; i < 10; i++ {
		st := time.Now()
		code, _ := postRaw(t, self.URL+"/v1/jobs", body)
		if code != http.StatusOK {
			t.Fatalf("warm POST %d: status %d", i, code)
		}
		if d := time.Since(st); d > 2*time.Second {
			t.Fatalf("warm hit %d took %v behind a black-holed follower", i, d)
		}
	}
	if coldLatency > 10*time.Second {
		t.Fatalf("cold compute took %v: replication blocked the request path", coldLatency)
	}
}
