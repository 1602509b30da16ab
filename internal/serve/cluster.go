package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hetopt/internal/cluster"
)

// ClusterOptions configures a Server as one member of a consistent-
// hash sharded hetserved cluster (see DESIGN.md, "The cluster layer").
// Every member is configured with the same Peers list; the ring it
// induces routes each canonical request key to one owning node, so
// each node's warm-start store and trained models stay hot for its
// slice of the key space. Any node accepts any request: non-owned keys
// are forwarded to the owner (one extra hop, loop-guarded), the batch
// endpoint scatter-gathers members across shards, and completed store
// entries are replicated to each key's ring-successor follower so an
// owner outage fails over and still answers warm.
type ClusterOptions struct {
	// NodeID is this node's own entry in Peers — the base URL peers
	// reach it at (e.g. "http://10.0.0.1:8080").
	NodeID string
	// Peers lists every cluster member's base URL, self included.
	// Order does not matter: the ring sorts, so all members agree.
	Peers []string
	// Replicate enables asynchronous replication of completed store
	// entries to the key's follower (and, after a failover compute,
	// back toward the owner), through a queue of
	// cluster.DefaultReplicationQueue entries: a full queue drops
	// entries, never blocks the warm path.
	Replicate bool
	// ForwardTimeout bounds one proxied exchange end to end; <= 0
	// selects cluster.DefaultForwardTimeout. Forwarded cold jobs are
	// synchronous (the proxied hop always waits), so size it for
	// compute, not for warm hits.
	ForwardTimeout time.Duration
}

// replicationTimeout bounds one replication delivery. Deliberately
// shorter than the forward timeout: replication is best-effort and its
// queue must drain fast at shutdown even against a black-holed peer.
const replicationTimeout = 5 * time.Second

// clusterState is the per-server cluster runtime.
type clusterState struct {
	opt    ClusterOptions
	router *cluster.Router
	client *cluster.Client // forwarding + scatter
	repl   *cluster.Replicator

	// Routing disposition of POST /v1/jobs: every request is counted
	// in exactly one bucket — forwarded when a peer's response was
	// streamed through, local otherwise (including warm hits, error
	// answers and failover-to-local computes) — so local+forwarded
	// always equals the endpoint's request count.
	local     atomic.Int64
	forwarded atomic.Int64
	// scattered counts batch members proxied to peers; failover counts
	// requests answered by a follower (or recomputed here) after the
	// owner was unreachable.
	scattered   atomic.Int64
	failover    atomic.Int64
	replApplied atomic.Int64
}

// newClusterState validates the options and builds the runtime.
func newClusterState(opt ClusterOptions) (*clusterState, error) {
	router, err := cluster.NewRouter(opt.NodeID, opt.Peers, cluster.DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	cl := &clusterState{
		opt:    opt,
		router: router,
		client: cluster.NewClient(opt.ForwardTimeout),
	}
	if opt.Replicate && len(router.Peers()) > 1 {
		replClient := cluster.NewClient(replicationTimeout)
		cl.repl = cluster.NewReplicator(cluster.DefaultReplicationQueue, 1, func(target string, payload []byte) error {
			resp, err := replClient.Post(target+"/v1/cluster/replicate", payload, router.Self())
			if err != nil {
				router.MarkDown(target)
				return err
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("serve: replicate to %s: status %d", target, resp.StatusCode)
			}
			router.MarkUp(target)
			return nil
		})
	}
	return cl, nil
}

// forwarded reports whether r carries the one-hop loop guard.
func isForwarded(r *http.Request) bool {
	return r.Header.Get(cluster.ForwardedHeader) != ""
}

// peerHop sends the canonical request to the key's owner with
// ?wait=1, failing over to the follower when the owner is unreachable
// (the follower holds the replicated warm entry, so the answer stays
// warm and byte-identical). The proxied hop always waits: a cold
// forward returns the terminal status in one round trip, so clients
// never need to poll a job id that lives on another node. The first
// peer that answers, whatever its status, is handed to use. peerHop
// reports false when no peer answered — the caller computes locally
// (results are pure functions of the request, so a local recompute is
// still byte-identical, just not warm). A follower's answer and a
// local fallback each count one failover.
func (cl *clusterState) peerHop(rt cluster.Route, req TuneRequest, use func(*http.Response)) bool {
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	self := cl.router.Self()
	for i, target := range [2]string{rt.Owner, rt.Follower} {
		if target == self || (i == 1 && target == rt.Owner) {
			continue
		}
		resp, err := cl.client.Post(target+"/v1/jobs?wait=1", body, self)
		if err != nil {
			cl.router.MarkDown(target)
			continue
		}
		cl.router.MarkUp(target)
		if i == 1 {
			cl.failover.Add(1)
		}
		use(resp)
		resp.Body.Close()
		return true
	}
	cl.failover.Add(1) // owner (and follower) down: recompute locally
	return false
}

// forwardJob proxies a non-owned request through peerHop, streaming
// the peer's answer to w verbatim — status code, content type and the
// body bytes (a warm hit streams the owner's pre-rendered response
// bytes without re-encoding, which is what keeps proxied answers
// byte-identical to local ones). It reports false, with nothing
// written, when no peer answered.
func (s *Server) forwardJob(w http.ResponseWriter, rt cluster.Route, req TuneRequest) bool {
	return s.cluster.peerHop(rt, req, func(resp *http.Response) {
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	})
}

// submitWait submits one canonical request locally and blocks until
// its terminal state — the scatter-gather equivalent of ?wait=1.
func (s *Server) submitWait(req TuneRequest) JobStatus {
	st, j, err := s.submitJob(req)
	if err != nil {
		return JobStatus{
			State:   JobRejected,
			Request: req,
			Key:     req.Key(),
			Error:   err.Error(),
		}
	}
	if j != nil {
		<-j.done
		st = j.status()
	}
	return st
}

// scatterOne resolves one non-owned batch member through peerHop,
// computed locally when no peer answered. Peer rejections (429/503)
// are reported as rejected members, mirroring the local batch
// contract.
func (s *Server) scatterOne(req TuneRequest, key string, rt cluster.Route) JobStatus {
	var st JobStatus
	if s.cluster.peerHop(rt, req, func(resp *http.Response) {
		s.cluster.scattered.Add(1)
		st = decodeScattered(resp, req, key)
	}) {
		return st
	}
	return s.submitWait(req)
}

// decodeScattered turns one proxied member response into a JobStatus.
func decodeScattered(resp *http.Response, req TuneRequest, key string) JobStatus {
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return JobStatus{State: JobRejected, Request: req, Key: key, Error: fmt.Sprintf("serve: decoding scattered member: %v", err)}
		}
		return st
	}
	var e errorJSON
	_ = json.NewDecoder(resp.Body).Decode(&e)
	if e.Error == "" {
		e.Error = fmt.Sprintf("serve: peer answered status %d", resp.StatusCode)
	}
	return JobStatus{State: JobRejected, Request: req, Key: key, Error: e.Error}
}

// scatterBatch fans the expanded batch out across the cluster — each
// member goes to its key's owning shard in parallel, so an alpha sweep
// runs on every node's hot store and trained models at once — and
// merges the answers deterministically in expansion order. Every
// member comes back terminal (local members wait too), so the merged
// front needs no cross-node polling.
func (s *Server) scatterBatch(canon []TuneRequest) BatchResponse {
	out := make([]JobStatus, len(canon))
	var wg sync.WaitGroup
	for i := range canon {
		wg.Add(1)
		go func(i int, req TuneRequest) {
			defer wg.Done()
			key := req.Key()
			rt := s.cluster.router.Route([]byte(key))
			if rt.Local {
				out[i] = s.submitWait(req)
			} else {
				out[i] = s.scatterOne(req, key, rt)
			}
		}(i, canon[i])
	}
	wg.Wait()
	return BatchResponse{Jobs: out}
}

// replicateWire is the replication payload: the canonical store key
// and the owner's pre-rendered warm-hit response bytes, carried as a
// JSON string so the exact bytes (trailing newline included) round-
// trip — the follower serves them verbatim, which is what makes a
// failover answer byte-identical to the owner's.
type replicateWire struct {
	Key  string `json:"key"`
	Body string `json:"body"`
}

// replicateEntry enqueues one completed entry for replication to the
// key's follower (and toward the owner, after a failover compute on a
// non-owner). Called from the pool worker once the entry completed —
// never under a store stripe lock, and Enqueue never blocks, so a slow or black-
// holed follower cannot touch the warm path.
func (s *Server) replicateEntry(key string, body []byte) {
	cl := s.cluster
	if cl == nil || cl.repl == nil {
		return
	}
	owner, follower := cl.router.Ring().Lookup([]byte(key))
	self := cl.router.Self()
	targets := make([]string, 0, 2)
	if owner != self {
		targets = append(targets, owner)
	}
	if follower != self && follower != owner {
		targets = append(targets, follower)
	}
	if len(targets) == 0 {
		return
	}
	payload, err := json.Marshal(replicateWire{Key: key, Body: string(body)})
	if err != nil {
		return
	}
	cl.repl.Enqueue(cluster.Item{Targets: targets, Payload: payload})
}

// handleReplicate applies one replicated entry: the rendered response
// bytes are installed verbatim alongside the decoded result, so later
// warm hits (and failover answers) on this node serve the owner's
// exact bytes. Existing entries — in-flight or completed — win over
// the replica; the apply is idempotent.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	s.met.request("replicate")
	sc := getScratch()
	defer putScratch(sc)
	var msg replicateWire
	if !sc.decode(w, r, &msg) {
		return
	}
	if msg.Key == "" || msg.Body == "" {
		writeJSON(w, http.StatusBadRequest, errorJSON{"serve: replicate needs key and body"})
		return
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(msg.Body), &st); err != nil || st.Result == nil || st.State != JobDone {
		writeJSON(w, http.StatusBadRequest, errorJSON{"serve: replicate body is not a completed job status"})
		return
	}
	if st.Key != msg.Key {
		writeJSON(w, http.StatusBadRequest, errorJSON{fmt.Sprintf("serve: replicate key %q does not match body key %q", msg.Key, st.Key)})
		return
	}
	applied := s.store.Install(msg.Key, *st.Result, []byte(msg.Body))
	if applied {
		s.cluster.replApplied.Add(1)
	}
	writeJSON(w, http.StatusOK, struct {
		Applied bool `json:"applied"`
	}{applied})
}

// ClusterOwner reports which peer owns key's shard — the node whose
// store warms it. Empty on a single-node server. The forward-warm-hit
// benchmark uses it to pick a key of a known owner.
func (s *Server) ClusterOwner(key string) string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.router.Ring().Owner([]byte(key))
}

// ClusterMetrics is the cluster block of GET /v1/metrics; nil (and
// omitted from the wire) on a single-node server. Local and Forwarded
// partition the jobs endpoint's request count exactly: every POST
// /v1/jobs is answered either by this node (local — warm hits, cold
// computes, error answers and failover recomputes alike) or by
// streaming a peer's response through (forwarded).
type ClusterMetrics struct {
	NodeID string        `json:"node_id"`
	Peers  []PeerMetrics `json:"peers"`
	// Local + Forwarded == Requests["jobs"] (TestMetricsClusterSplit).
	Local     int64 `json:"local"`
	Forwarded int64 `json:"forwarded"`
	// Scattered counts batch members proxied to peers; Failover counts
	// owner-unreachable requests answered by the follower or recomputed
	// here.
	Scattered int64 `json:"scattered"`
	Failover  int64 `json:"failover"`
	// Replication is the async hot-entry replication accounting.
	Replication struct {
		Sent    int64 `json:"sent"`
		Failed  int64 `json:"failed"`
		Dropped int64 `json:"dropped"`
		Applied int64 `json:"applied"`
		Pending int64 `json:"pending"`
	} `json:"replication"`
}

// PeerMetrics is one cluster member's last-known health.
type PeerMetrics struct {
	Node string `json:"node"`
	Self bool   `json:"self,omitempty"`
	Up   bool   `json:"up"`
}

// clusterMetrics snapshots the cluster block; nil when not clustered.
func (s *Server) clusterMetrics() *ClusterMetrics {
	cl := s.cluster
	if cl == nil {
		return nil
	}
	m := &ClusterMetrics{
		NodeID:    cl.router.Self(),
		Local:     cl.local.Load(),
		Forwarded: cl.forwarded.Load(),
		Scattered: cl.scattered.Load(),
		Failover:  cl.failover.Load(),
	}
	for _, p := range cl.router.Peers() {
		m.Peers = append(m.Peers, PeerMetrics{Node: p, Self: p == cl.router.Self(), Up: cl.router.Up(p)})
	}
	if cl.repl != nil {
		m.Replication.Sent = cl.repl.Sent()
		m.Replication.Failed = cl.repl.Failed()
		m.Replication.Dropped = cl.repl.Dropped()
		m.Replication.Pending = int64(cl.repl.Pending())
	}
	m.Replication.Applied = cl.replApplied.Load()
	return m
}
