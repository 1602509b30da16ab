package benchjson

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetopt/internal/cluster"
	"hetopt/internal/core"
	"hetopt/internal/dna"
	"hetopt/internal/graph"
	"hetopt/internal/machine"
	"hetopt/internal/ml"
	"hetopt/internal/offload"
	"hetopt/internal/scenario"
	"hetopt/internal/search"
	"hetopt/internal/serve"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// The tracked set covers each layer the hot-path work touches: the two
// end-to-end search benches the acceptance gate names (enumeration and
// multi-chain annealing), the per-evaluation measurement, the two
// memo-hit paths whose zero-allocation contract the PR introduces, and
// the serving layer's canonical store key. Names are stable across PRs;
// add to the set, do not rename.

// benchState lazily builds the shared fixtures once per process —
// model training is seconds-scale and must never run inside a timed
// region (testing.Benchmark re-invokes the function while calibrating
// b.N, so fixtures cannot be built there unguarded).
type benchState struct {
	platform *offload.Platform
	schema   *space.Schema
	workload offload.Workload
	// hostData and devData are the paper plan's generated training sets.
	hostData, devData *ml.Dataset
	pred              *core.Predictor
	err               error
}

// trainOptions are the options every fixture model is trained with.
var trainOptions = core.TrainOptions{SplitSeed: 7}

var (
	stateOnce sync.Once
	state     benchState
)

func fixtures(b *testing.B) *benchState {
	b.Helper()
	stateOnce.Do(func() {
		state.platform = offload.NewPlatform()
		state.schema = space.PaperSchema()
		state.workload = offload.GenomeWorkload(dna.Human)
		plan := core.PaperTrainingPlan()
		if state.hostData, state.err = core.GenerateHostData(state.platform, plan); state.err != nil {
			return
		}
		if state.devData, state.err = core.GenerateDeviceData(state.platform, plan); state.err != nil {
			return
		}
		models, err := core.TrainOnData(state.hostData, state.devData, trainOptions)
		if err != nil {
			state.err = err
			return
		}
		state.pred, state.err = core.NewPredictor(models, state.workload, state.platform.Model())
	})
	if state.err != nil {
		b.Fatal(state.err)
	}
	return &state
}

// trackedConfig is the paper's flagship configuration (Section IV-C).
func trackedConfig() space.Config {
	return space.Config{
		HostThreads: 48, HostAffinity: machine.AffinityScatter,
		DeviceThreads: 240, DeviceAffinity: machine.AffinityBalanced,
		HostFraction: 60,
	}
}

// Defs returns the tracked benchmark set.
func Defs() []Def {
	return []Def{
		{Name: "em-enumeration", Bench: benchEMEnumeration},
		{Name: "sam-multichain", Bench: benchSAMMultiChain},
		{Name: "measure-full", Bench: benchMeasureFull},
		{Name: "predictor-evaluate-hit", Bench: benchPredictorEvaluateHit},
		{Name: "cache-evaluate-hit", Bench: benchCacheEvaluateHit},
		{Name: "store-key", Bench: benchStoreKey},
		{Name: "store-peek", Bench: benchStorePeek},
		{Name: "warm-hit-post", Bench: benchWarmHitPost},
		{Name: "dag-placement", Bench: benchDAGPlacement},
		{Name: "exact-small-space", Bench: benchExactSmallSpace},
		{Name: "ring-lookup", Bench: benchRingLookup},
		{Name: "local-warm-hit-http", Bench: benchLocalWarmHitHTTP},
		{Name: "forward-warm-hit", Bench: benchForwardWarmHit},
		{Name: "model-training", Bench: benchModelTraining},
	}
}

// benchModelTraining is the set-up cost of every ML method: both
// default boosted-tree models of the paper plan (Figure 4), fitted on
// data generated once outside the timed region.
func benchModelTraining(b *testing.B) {
	st := fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrainOnData(st.hostData, st.devData, trainOptions); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRingLookup is the cluster routing decision paid by every POST:
// one consistent-hash lookup of a canonical store key, returning owner
// and failover follower. Contract: 0 allocs/op (the ring is immutable
// and the binary search walks a flat point slice).
func benchRingLookup(b *testing.B) {
	ring, err := cluster.New([]string{
		"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080",
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	key := []byte("w=dna:human|p=paper|mb=3246|m=SAML|s=auto|o=time|a=0|sl=0|it=1000|r=1|seed=42")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner, follower := ring.Lookup(key)
		if owner == "" || follower == "" {
			b.Fatal("empty lookup")
		}
	}
}

// benchSwap adapts a Server into a handler swappable after its peer
// URLs are known (the cluster benches need listeners bound first).
type benchSwap struct {
	s atomic.Pointer[serve.Server]
}

func (sw *benchSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s := sw.s.Load(); s != nil {
		s.ServeHTTP(w, r)
		return
	}
	http.Error(w, "not ready", http.StatusServiceUnavailable)
}

// benchCluster builds a 2-node cluster, warms one key on its owner,
// and returns the owner URL, the other node's URL, the warm POST body
// and a teardown. The same fixture serves the local and forwarded
// warm-hit benches, so their ratio is a clean one-hop cost.
func benchCluster(b *testing.B) (ownerURL, otherURL string, body []byte, done func()) {
	b.Helper()
	swaps := [2]*benchSwap{{}, {}}
	l0 := httptest.NewServer(swaps[0])
	l1 := httptest.NewServer(swaps[1])
	urls := []string{l0.URL, l1.URL}
	servers := make([]*serve.Server, 2)
	for i := range servers {
		s, err := serve.NewCluster(serve.Options{
			Workers:   2,
			QueueSize: 8,
			Cluster:   &serve.ClusterOptions{NodeID: urls[i], Peers: urls, Replicate: false},
		})
		if err != nil {
			b.Fatal(err)
		}
		servers[i] = s
		swaps[i].s.Store(s)
	}
	done = func() {
		l0.Close()
		l1.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, s := range servers {
			_ = s.Drain(ctx)
		}
	}
	// Sweep seeds for a key owned by node 0 (the httptest ports differ
	// per process, so the ring layout does too).
	for seed := int64(1); seed < 4096; seed++ {
		raw := serve.TuneRequest{Method: "sam", Iterations: 40, Seed: seed}
		canon, err := raw.Normalize()
		if err != nil {
			b.Fatal(err)
		}
		if servers[0].ClusterOwner(canon.Key()) != urls[0] {
			continue
		}
		body, err = json.Marshal(canon)
		if err != nil {
			b.Fatal(err)
		}
		resp, perr := http.Post(urls[0]+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
		if perr != nil {
			b.Fatal(perr)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("warming POST: status %d", resp.StatusCode)
		}
		return urls[0], urls[1], body, done
	}
	b.Fatal("no seed under 4096 owned by node 0")
	return "", "", nil, nil
}

// benchWarmPost drives b.N warm POSTs of body to url over a pooled
// client — one full HTTP round trip per op.
func benchWarmPost(b *testing.B, url string, body []byte) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("warm POST: status %d", resp.StatusCode)
		}
	}
}

// benchLocalWarmHitHTTP is a warm hit POSTed to the key's owner: the
// full HTTP round trip of the store-served fast path, and the baseline
// the forwarded hop is compared against (acceptance: forwarded stays
// within 10x of this).
func benchLocalWarmHitHTTP(b *testing.B) {
	ownerURL, _, body, done := benchCluster(b)
	defer done()
	benchWarmPost(b, ownerURL+"/v1/jobs", body)
}

// benchForwardWarmHit is the same warm hit POSTed to the non-owner:
// the entry node routes the key, proxies to the owner, and streams the
// owner's pre-rendered bytes through — two HTTP round trips total.
func benchForwardWarmHit(b *testing.B) {
	ownerURL, otherURL, body, done := benchCluster(b)
	_ = ownerURL
	defer done()
	benchWarmPost(b, otherURL+"/v1/jobs", body)
}

// benchExactSmallSpace is one certified branch-and-bound solve of the
// fork-join placement space (2^11 states): the end-to-end cost of a
// proof on a small space, with the critical-path lower bound pruning
// the tree and the diverse pool riding along.
func benchExactSmallSpace(b *testing.B) {
	spec, err := scenario.PlatformByName("gpu-like")
	if err != nil {
		b.Fatal(err)
	}
	sim, err := spec.DAGSim(graph.ForkJoin())
	if err != nil {
		b.Fatal(err)
	}
	prob := graph.NewPlacementProblem(sim)
	ex := strategy.Exact{Prove: true, PoolSize: 4}
	opt := strategy.Options{Parallelism: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ex.Minimize(prob, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cert == nil || !res.Cert.Optimal || res.Cert.Pruned == 0 {
			b.Fatal("solve returned no pruning proof")
		}
	}
}

// benchDAGPlacement is one makespan evaluation of the graph
// list-scheduling simulator — the inner loop of every placement search.
// Its zero-allocation contract is also pinned by an AllocsPerRun test
// in internal/graph.
func benchDAGPlacement(b *testing.B) {
	spec, err := scenario.PlatformByName("gpu-like")
	if err != nil {
		b.Fatal(err)
	}
	sim, err := spec.DAGSim(graph.ResNetIsh())
	if err != nil {
		b.Fatal(err)
	}
	placement := sim.RoundRobinPlacement()
	if sim.Makespan(placement) <= 0 {
		b.Fatal("degenerate makespan")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sim.Makespan(placement) <= 0 {
			b.Fatal("degenerate makespan")
		}
	}
}

// benchEMEnumeration is a full EM enumeration of the 19,926-config
// space (the BenchmarkTable1Enumeration acceptance bench).
func benchEMEnumeration(b *testing.B) {
	s := fixtures(b)
	inst := &core.Instance{Schema: s.schema, Measurer: core.NewMeasurer(s.platform, s.workload)}
	// Warm the shared measure cache so the record captures the
	// steady-state per-run cost: the first enumeration's 19,926 memo
	// inserts would otherwise amortize over a run-dependent N and make
	// allocs/op non-reproducible.
	if _, err := core.Run(core.EM, inst, core.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.EM, inst, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.SearchEvaluations != 19926 {
			b.Fatal("enumeration incomplete")
		}
	}
}

// benchSAMMultiChain runs 4 concurrent SAM chains over the shared
// evaluation cache (the BenchmarkSAMMultiChain acceptance bench).
func benchSAMMultiChain(b *testing.B) {
	s := fixtures(b)
	inst := &core.Instance{Schema: s.schema, Measurer: core.NewMeasurer(s.platform, s.workload)}
	// Warm the shared measure cache (see benchEMEnumeration).
	if _, err := core.Run(core.SAM, inst, core.Options{
		Iterations: 2000, Seed: 1, Restarts: 4, Parallelism: 4,
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.SAM, inst, core.Options{
			Iterations: 2000, Seed: 1, Restarts: 4, Parallelism: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.SearchEvaluations != 4*2001 {
			b.Fatal("chain budget mismatch")
		}
	}
}

// benchMeasureFull is one simulated measurement: four placements-worth
// of table lookups plus four noise hashes.
func benchMeasureFull(b *testing.B) {
	s := fixtures(b)
	cfg := trackedConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.platform.MeasureFull(s.workload, cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPredictorEvaluateHit is the steady-state prediction path: both
// side memos warm, energy priced through the cached power tables.
func benchPredictorEvaluateHit(b *testing.B) {
	s := fixtures(b)
	cfg := trackedConfig()
	if _, err := s.pred.Evaluate(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.pred.Evaluate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCacheEvaluateHit is the memo-hit path of the shared evaluation
// cache.
func benchCacheEvaluateHit(b *testing.B) {
	s := fixtures(b)
	cache := search.NewCache(core.NewMeasurer(s.platform, s.workload))
	cfg := trackedConfig()
	if _, err := cache.Evaluate(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Evaluate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStoreKey is the canonical store key of a normalized tune
// request, computed on every submit — the allocation-free AppendKey
// path the serving handler uses, with the key buffer reused across
// requests the way the pooled decode scratch reuses it.
func benchStoreKey(b *testing.B) {
	req := serve.TuneRequest{
		Workload: "dna-human", Platform: "paper", SizeMB: 3246,
		Method: "SAML", Strategy: "anneal", Objective: "time",
		Iterations: 1000, Restarts: 4, Seed: 42,
	}
	buf := make([]byte, 0, 192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = req.AppendKey(buf[:0])
		if len(buf) == 0 {
			b.Fatal("empty key")
		}
	}
}

// benchStorePeek is the sharded store's warm-hit lookup: key bytes in,
// pre-rendered response bytes out, one shard mutex held briefly.
func benchStorePeek(b *testing.B) {
	store := serve.NewStore(0)
	req := warmBenchRequest()
	canon, err := req.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	key := canon.Key()
	if _, err, _ := store.Do(key, func() (serve.TuneResult, error) {
		return serve.TuneResult{Method: "SAM", TimeSec: 1.25, EnergyJ: 80}, nil
	}); err != nil {
		b.Fatal(err)
	}
	store.SetBody(key, []byte(`{"state":"done"}`+"\n"))
	keyBytes := []byte(key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _, ok := store.PeekWarm(keyBytes)
		if !ok || body == nil {
			b.Fatal("warm entry missing")
		}
	}
}

// benchWarmHitPost is the server-side core of a warm POST /v1/jobs —
// everything between the decoded request and the socket write:
// normalization, the canonical key appended into the reused scratch
// buffer, the sharded-store lookup and the write of the stored response
// bytes. HTTP transport and JSON decode are excluded (they are the
// client's and codec's cost, identical warm or cold); the pre-PR
// two-round-trip equivalent of this path is the POST+GET measured in
// internal/serve's BenchmarkServeWarmStart lineage (see DESIGN.md).
func benchWarmHitPost(b *testing.B) {
	store := serve.NewStore(0)
	req := warmBenchRequest()
	canon, err := req.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	key := canon.Key()
	if _, err, _ := store.Do(key, func() (serve.TuneResult, error) {
		return serve.TuneResult{Method: "SAM", TimeSec: 1.25, EnergyJ: 80}, nil
	}); err != nil {
		b.Fatal(err)
	}
	body, jerr := json.Marshal(serve.JobStatus{State: serve.JobDone, Cached: true, Request: canon, Key: key})
	if jerr != nil {
		b.Fatal(jerr)
	}
	store.SetBody(key, append(body, '\n'))
	keyBuf := make([]byte, 0, 192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		canon, err := req.Normalize()
		if err != nil {
			b.Fatal(err)
		}
		keyBuf = canon.AppendKey(keyBuf[:0])
		body, _, ok := store.PeekWarm(keyBuf)
		if !ok || body == nil {
			b.Fatal("warm entry missing")
		}
		if n, err := io.Discard.Write(body); err != nil || n == 0 {
			b.Fatal("write failed")
		}
	}
}

// warmBenchRequest is the raw (pre-normalization) request the serving
// benches replay — field casing as a client would plausibly send it.
func warmBenchRequest() serve.TuneRequest {
	return serve.TuneRequest{
		Workload: "dna:human", Method: "SAM", Objective: "time",
		Iterations: 300, Seed: 9,
	}
}
