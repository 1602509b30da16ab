// Package serve is the tuning-as-a-service layer: an HTTP/JSON server
// (stdlib net/http only) that answers the paper's query shape — "what is
// the near-optimal configuration for workload W under objective O?" —
// as asynchronous jobs on a bounded worker pool, with a warm-start
// result store so repeat queries are served from cache, and a batch
// endpoint that maps a whole time/energy front (a list of alphas) in
// one call. See DESIGN.md, "The serving layer".
//
// Endpoints:
//
//	POST /v1/jobs        submit one tune request; 202 + job id
//	                     (200 with the inline result — no id, no poll —
//	                     when the store already holds it, or on ?wait=1
//	                     once the job finishes), 429 on backpressure
//	POST /v1/jobs:batch  submit a request list and/or an alpha sweep
//	GET  /v1/jobs/{id}   poll a job
//	GET  /v1/healthz     liveness and pool state
//	GET  /v1/metrics     request/job/store/latency counters
//
// Determinism contract: a request is canonicalized (TuneRequest.
// Normalize) before keying the store, so identical requests — whatever
// their field order or explicit defaults — produce bit-identical
// results, the second one marked as a store hit. Concurrent jobs for
// the same workload measure through one core.SharedMeasurements (via
// core.Instance.MeasureCache), so overlapping searches never pay for
// the same measurement twice.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetopt/internal/core"
	"hetopt/internal/graph"
	"hetopt/internal/offload"
	"hetopt/internal/scenario"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// Options configures a Server. The zero value selects the paper
// platform and schema, 4 workers, a 64-slot queue and an unbounded
// store.
type Options struct {
	// Platform overrides the measurement substrate of the "paper"
	// platform (tests and embedders); nil resolves every platform,
	// "paper" included, from the scenario registry.
	Platform *offload.Platform
	// Schema overrides the configuration space of the "paper" platform;
	// nil resolves it from the scenario registry.
	Schema *space.Schema
	// DefaultWorkload and DefaultPlatform fill requests that name
	// neither a workload nor a genome / no platform; empty keeps the
	// wire defaults ("dna:human" on "paper"). cmd/hetserved sets them
	// from -workload and -platform.
	DefaultWorkload string
	DefaultPlatform string
	// Workers is the worker-pool size; <= 0 selects 4.
	Workers int
	// QueueSize bounds the pending-job queue (backpressure beyond it);
	// <= 0 selects 64.
	QueueSize int
	// StoreSize bounds the warm-start store (LRU eviction beyond it);
	// <= 0 means unbounded.
	StoreSize int
	// JobRetention bounds the job-status registry: beyond it the oldest
	// completed jobs are forgotten (their GET answers 404; queued and
	// running jobs are never evicted). <= 0 selects 4096.
	JobRetention int
	// Parallelism is the per-job search worker count; <= 0 runs each
	// job sequentially. It never affects results, only wall-clock.
	Parallelism int
	// Cluster makes this server one member of a consistent-hash
	// sharded cluster (forwarding, scatter-gather, replication and
	// failover); nil serves single-node. See ClusterOptions.
	Cluster *ClusterOptions
}

// job is the server-side state of one submission.
type job struct {
	mu     sync.Mutex
	id     string
	key    string
	req    TuneRequest // canonical
	state  JobState
	cached bool
	result *TuneResult
	err    string
	done   chan struct{} // closed on the terminal transition (wait=1)
}

// setDone transitions the job to done/failed and wakes wait=1 callers.
func (j *job) setDone(res TuneResult, err error, cached bool) {
	j.mu.Lock()
	if err != nil {
		j.state = JobFailed
		j.err = err.Error()
	} else {
		j.state = JobDone
		j.cached = cached
		j.result = &res
	}
	j.mu.Unlock()
	if j.done != nil {
		close(j.done)
	}
}

// finished reports whether the job reached a terminal state.
func (j *job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == JobDone || j.state == JobFailed
}

// status snapshots the job's wire form.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.id,
		State:   j.state,
		Cached:  j.cached,
		Request: j.req,
		Key:     j.key,
		Error:   j.err,
	}
	if j.result != nil {
		r := *j.result
		st.Result = &r
	}
	return st
}

// workloadKey identifies the shared evaluation state of one workload on
// one platform.
type workloadKey struct {
	platform string
	name     string
	sizeMB   float64
}

// Server is the tuning service. Construct with New; it implements
// http.Handler.
type Server struct {
	opt     Options
	pool    *Pool
	store   *Store
	mux     *http.ServeMux
	met     metrics
	cluster *clusterState // nil on a single-node server

	jobsMu   sync.Mutex
	jobs     map[string]*job
	jobOrder []string // registration order, drives retention eviction
	nextID   atomic.Int64

	draining atomic.Bool

	platMu    sync.Mutex
	platforms map[string]*platformState

	trainMu sync.Mutex
	trained map[trainKey]*trainState

	evalMu    sync.Mutex
	workloads map[workloadKey]*workloadEntry
	wlOrder   []workloadKey

	// runFn executes one canonical request; tests substitute it to
	// exercise pool/store semantics without real tuning runs.
	runFn func(TuneRequest) (TuneResult, error)
}

// New builds a Server and starts its worker pool. It panics on an
// invalid Options.Cluster (a static configuration error); cluster
// embedders wanting an error instead use NewCluster.
func New(opt Options) *Server {
	s, err := NewCluster(opt)
	if err != nil {
		panic(err)
	}
	return s
}

// NewCluster is New returning cluster-configuration errors instead of
// panicking; with a nil Options.Cluster it never fails.
func NewCluster(opt Options) (*Server, error) {
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	if opt.QueueSize <= 0 {
		opt.QueueSize = 64
	}
	if opt.JobRetention <= 0 {
		opt.JobRetention = 4096
	}
	s := &Server{
		opt:       opt,
		pool:      NewPool(opt.Workers, opt.QueueSize),
		store:     NewStore(opt.StoreSize),
		jobs:      map[string]*job{},
		platforms: map[string]*platformState{},
		trained:   map[trainKey]*trainState{},
		workloads: map[workloadKey]*workloadEntry{},
	}
	s.runFn = s.runTune
	if opt.Cluster != nil {
		cl, err := newClusterState(*opt.Cluster)
		if err != nil {
			return nil, err
		}
		s.cluster = cl
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleCreateJob)
	s.mux.HandleFunc("POST /v1/jobs:batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	if s.cluster != nil {
		s.mux.HandleFunc("POST /v1/cluster/replicate", s.handleReplicate)
	}
	return s, nil
}

// platformState is the lazily built per-platform substrate shared by
// every job on that platform.
type platformState struct {
	spec     scenario.PlatformSpec
	platform *offload.Platform
	schema   *space.Schema
}

// platformFor resolves a canonical platform name into its shared state,
// building it on first use. Options.Platform/Schema, when set, override
// the "paper" platform so embedders and tests can substitute their own
// substrate without touching the registry.
func (s *Server) platformFor(name string) (*platformState, error) {
	s.platMu.Lock()
	defer s.platMu.Unlock()
	if st, ok := s.platforms[name]; ok {
		return st, nil
	}
	spec, err := scenario.PlatformByName(name)
	if err != nil {
		return nil, err
	}
	st := &platformState{spec: spec}
	if name == "paper" && s.opt.Platform != nil {
		st.platform = s.opt.Platform
	} else {
		st.platform = spec.Platform()
	}
	if name == "paper" && s.opt.Schema != nil {
		st.schema = s.opt.Schema
	} else {
		st.schema, err = spec.Schema()
		if err != nil {
			return nil, err
		}
	}
	s.platforms[name] = st
	return st, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops job intake and waits for every accepted job — queued and
// in-flight — to finish, or for ctx to expire. Call after shutting the
// HTTP listener down.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	err := s.pool.Shutdown(ctx)
	if s.cluster != nil && s.cluster.repl != nil {
		// After the pool: the last completions have enqueued their
		// replication, and Close drains the queue (each delivery
		// bounded by the short replication timeout).
		s.cluster.repl.Close()
	}
	return err
}

// writeJSON marshals v with a trailing newline (curl-friendly).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorJSON is the error envelope of every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

// jobID formats identifier n as "j-" plus n zero-padded to at least six
// digits — byte-identical to fmt.Sprintf("j-%06d", n), including the
// sign placement for negative values — without the fmt machinery on the
// submit path.
func jobID(n int64) string {
	var num [20]byte
	d := strconv.AppendInt(num[:0], n, 10)
	sign := 0
	if d[0] == '-' {
		sign = 1
	}
	pad := 6 - len(d)
	if pad < 0 {
		pad = 0
	}
	b := make([]byte, 0, 2+pad+len(d))
	b = append(b, 'j', '-')
	b = append(b, d[:sign]...)
	for i := 0; i < pad; i++ {
		b = append(b, '0')
	}
	b = append(b, d[sign:]...)
	return string(b)
}

// submitJob turns one canonical (already-normalized) request into a
// job status: answered inline from the warm-start store when possible
// (no registry entry, no pool slot — the returned status is terminal
// and has no id), registered and enqueued on the pool otherwise. The
// registered job is returned alongside, so wait=1 callers can block on
// its terminal transition; it is nil for warm hits (nothing to wait
// for) and on error. A full queue or a draining server is reported as
// an error with nothing registered.
func (s *Server) submitJob(req TuneRequest) (JobStatus, *job, error) {
	if s.draining.Load() {
		return JobStatus{}, nil, ErrPoolClosed
	}
	key := req.Key()

	// Warm start: a completed store entry answers the submission right
	// here — no registry entry, no poll round-trip, no pool slot
	// (cached POSTs are never backpressured).
	start := time.Now()
	if e, ok := peek(s.store, key); ok {
		res := e.res
		s.met.warmHit(time.Since(start))
		return JobStatus{
			State:   JobDone,
			Cached:  true,
			Request: req,
			Key:     key,
			Result:  &res,
		}, nil, nil
	}

	j := &job{
		id:    jobID(s.nextID.Add(1)),
		key:   key,
		req:   req,
		state: JobQueued,
		done:  make(chan struct{}),
	}
	err := s.pool.Submit(func() {
		j.mu.Lock()
		j.state = JobRunning
		j.mu.Unlock()
		var body []byte
		res, err, hit := s.store.Do(key, func() (TuneResult, []byte, error) {
			res, err := s.runFn(req)
			if err != nil {
				return res, nil, err
			}
			// Render the warm-hit response bytes once, inside the
			// flight: the entry completes with them, and every hit on
			// this key is served these exact bytes.
			body = renderWarmBody(req, key, res)
			return res, body, nil
		})
		if body != nil {
			// Replication rides the same bytes, enqueued after the
			// stripe lock is long released — the replicator's network
			// I/O can never block the warm path.
			s.replicateEntry(key, body)
		}
		// Count the job before releasing its waiters, so a client
		// woken by completion always finds its own job in /v1/metrics.
		if err != nil {
			s.met.failed.Add(1)
		} else {
			s.met.completed.Add(1)
			if hit {
				s.met.storeHits.Add(1)
			}
		}
		s.met.observeCold(time.Since(start))
		j.setDone(res, err, hit)
	})
	if err != nil {
		s.met.rejected.Add(1)
		return JobStatus{}, nil, err
	}
	s.met.submitted.Add(1)
	s.register(j)
	return j.status(), j, nil
}

// renderWarmBody marshals the terminal status a warm hit answers with —
// the same bytes writeJSON would produce for it, newline included.
func renderWarmBody(req TuneRequest, key string, res TuneResult) []byte {
	st := JobStatus{
		State:   JobDone,
		Cached:  true,
		Request: req,
		Key:     key,
		Result:  &res,
	}
	b, err := json.Marshal(st)
	if err != nil {
		return nil // unreachable: JobStatus marshals
	}
	return append(b, '\n')
}

// register publishes a job for GET /v1/jobs/{id}, forgetting the
// oldest completed jobs beyond the retention bound so the registry
// cannot grow without limit under steady traffic. Queued and running
// jobs are never evicted.
func (s *Server) register(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	// Scan from the oldest job and stop once the bound holds, so a full
	// registry costs one eviction per registration, not a full pass.
	for i := 0; i < len(s.jobOrder) && len(s.jobs) > s.opt.JobRetention; {
		id := s.jobOrder[i]
		if !s.jobs[id].finished() {
			i++
			continue
		}
		delete(s.jobs, id)
		if i == 0 {
			s.jobOrder = s.jobOrder[1:]
		} else {
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
		}
	}
}

// lookup resolves a job id.
func (s *Server) lookup(id string) (*job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// submitStatus maps a submission error to its HTTP status code.
func submitStatus(err error) int {
	switch err {
	case ErrQueueFull:
		return http.StatusTooManyRequests
	case ErrPoolClosed:
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	s.met.request("jobs")
	// Routing disposition: every jobs request lands in exactly one
	// cluster bucket — forwarded when a peer's answer was streamed
	// through, local otherwise (warm hits, cold computes and error
	// answers alike) — so local+forwarded equals the request count.
	proxied := false
	if s.cluster != nil {
		defer func() {
			if proxied {
				s.cluster.forwarded.Add(1)
			} else {
				s.cluster.local.Add(1)
			}
		}()
	}
	sc := getScratch()
	defer putScratch(sc)
	if !sc.decode(w, r, &sc.req) {
		return
	}
	s.applyDefaults(&sc.req)
	req, err := sc.req.Normalize()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{err.Error()})
		return
	}
	sc.key = req.AppendKey(sc.key[:0])

	// Warm-hit fast path: when the canonical key already names a
	// completed store entry, answer with its pre-rendered bytes — one
	// round-trip, no registry entry, no job id, no poll. Skipped while
	// draining so shutdown keeps its 503 contract. In a cluster this
	// runs before routing: a follower's replicated entry answers here
	// with the owner's exact bytes, no hop paid.
	if !s.draining.Load() {
		start := time.Now()
		if e, ok := peek(s.store, sc.key); ok {
			s.met.warmHit(time.Since(start))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(e.body)
			return
		}
	}

	// Cluster routing: a non-owned cold key is forwarded to its owner
	// (follower on owner outage), one loop-guarded hop. Forwarding
	// failure on every peer falls through to a local compute — the
	// answer stays byte-identical, results being pure functions of the
	// canonical request. Draining nodes skip the hop so shutdown keeps
	// its 503 contract.
	if s.cluster != nil && !isForwarded(r) && !s.draining.Load() {
		if rt := s.cluster.router.Route(sc.key); !rt.Local {
			if s.forwardJob(w, rt, req) {
				proxied = true
				return
			}
		}
	}

	st, j, err := s.submitJob(req)
	if err != nil {
		writeJSON(w, submitStatus(err), errorJSON{err.Error()})
		return
	}
	if j != nil && r.URL.Query().Get("wait") == "1" {
		// Inline completion on request: block until the job's terminal
		// transition (or the client gives up) instead of answering 202.
		select {
		case <-j.done:
			st = j.status()
		case <-r.Context().Done():
			st = j.status()
		}
	}
	code := http.StatusAccepted
	if st.State == JobDone || st.State == JobFailed {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.request("batch")
	sc := getScratch()
	defer putScratch(sc)
	var batch BatchRequest
	if !sc.decode(w, r, &batch) {
		return
	}
	reqs, err := batch.expand()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{err.Error()})
		return
	}
	// Normalize the whole batch before submitting any member: a batch
	// with a malformed request is rejected atomically, and the
	// canonical forms are reused for submission and rejection alike.
	canon := make([]TuneRequest, len(reqs))
	for i, raw := range reqs {
		s.applyDefaults(&raw)
		c, err := raw.Normalize()
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorJSON{err.Error()})
			return
		}
		canon[i] = c
	}
	// Cluster scatter-gather: members fan out to their owning shards
	// in parallel (an alpha sweep runs on every node's hot store at
	// once) and the front merges deterministically in expansion order,
	// every member terminal. Forwarded batches (loop guard) and
	// draining servers keep the local path.
	if s.cluster != nil && !isForwarded(r) && !s.draining.Load() {
		resp := s.scatterBatch(canon)
		code := http.StatusOK
		rejected := 0
		for _, st := range resp.Jobs {
			if st.State == JobRejected {
				rejected++
			}
		}
		if rejected == len(resp.Jobs) {
			code = http.StatusTooManyRequests
		}
		writeJSON(w, code, resp)
		return
	}

	resp := BatchResponse{Jobs: make([]JobStatus, 0, len(canon))}
	accepted := 0
	for _, req := range canon {
		st, _, err := s.submitJob(req)
		if err != nil {
			// Queue backpressure mid-batch: report the member rejected
			// in-line and keep going — accepted members stay valid.
			resp.Jobs = append(resp.Jobs, JobStatus{
				State:   JobRejected,
				Request: req,
				Key:     req.Key(),
				Error:   err.Error(),
			})
			continue
		}
		accepted++
		resp.Jobs = append(resp.Jobs, st)
	}
	code := http.StatusAccepted
	if accepted == 0 {
		// Nothing got in: backpressure (429), or shutdown (503).
		code = http.StatusTooManyRequests
		if s.draining.Load() {
			code = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	s.met.request("get_job")
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorJSON{fmt.Sprintf("serve: unknown job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.request("healthz")
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.jobsMu.Lock()
	jobs := len(s.jobs)
	s.jobsMu.Unlock()
	writeJSON(w, http.StatusOK, Health{
		Status:  status,
		Workers: s.opt.Workers,
		Jobs:    jobs,
		Entries: s.store.Len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.request("metrics")
	writeJSON(w, http.StatusOK, s.Metrics())
}

// maxWorkloads bounds the per-workload shared state: workload
// identity includes the caller-controlled size_mb, so without a bound a
// size scan would accumulate state forever. Beyond the bound the oldest
// workload's entry is dropped — in-flight jobs keep their pointers
// (still correct, just no sharing with future jobs for that workload).
const maxWorkloads = 64

// workloadEntry is what every job on one workload shares: the
// measurement memo, and the predictor bound on the first ML job.
type workloadEntry struct {
	shared *core.SharedMeasurements

	predOnce sync.Once
	pred     *core.Predictor
	predErr  error
}

// workloadFor returns the per-workload shared entry, creating it on
// first use. Every concurrent job for the same workload funnels its
// measurements through one memo, so overlapping searches pay for each
// configuration once.
func (s *Server) workloadFor(k workloadKey, st *platformState, w offload.Workload) (*workloadEntry, error) {
	s.evalMu.Lock()
	defer s.evalMu.Unlock()
	if e, ok := s.workloads[k]; ok {
		return e, nil
	}
	shared, err := core.NewSharedMeasurements(st.platform, w, st.schema)
	if err != nil {
		return nil, err
	}
	e := &workloadEntry{shared: shared}
	s.workloads[k] = e
	s.wlOrder = append(s.wlOrder, k)
	if len(s.wlOrder) > maxWorkloads {
		delete(s.workloads, s.wlOrder[0])
		s.wlOrder = s.wlOrder[1:]
	}
	return e, nil
}

// predictor returns the workload's predictor, binding the trained
// models of its (platform, family) to it on first use. Its internal
// memo tables are concurrency-safe, so jobs share prediction work too.
func (s *Server) predictor(e *workloadEntry, st *platformState, fam scenario.Family, w offload.Workload) (*core.Predictor, error) {
	e.predOnce.Do(func() {
		models, err := s.trainedModels(st, fam)
		if err != nil {
			e.predErr = err
			return
		}
		e.pred, e.predErr = core.NewPredictor(models, w, st.platform.Model())
	})
	return e.pred, e.predErr
}

// trainKey identifies one (platform, workload family) model pair.
type trainKey struct {
	platform string
	family   string
}

// trainState trains once per key and replays the outcome afterwards.
type trainState struct {
	once   sync.Once
	models *core.Models
	err    error
}

// trainedModels trains the prediction models for one (platform, family)
// pair exactly once (first ML job for it), on the registry's training
// plan for the pair, and replays the outcome afterwards.
func (s *Server) trainedModels(st *platformState, fam scenario.Family) (*core.Models, error) {
	key := trainKey{platform: strings.ToLower(st.spec.Name), family: strings.ToLower(fam.Name)}
	s.trainMu.Lock()
	ts, ok := s.trained[key]
	if !ok {
		ts = &trainState{}
		s.trained[key] = ts
	}
	s.trainMu.Unlock()
	ts.once.Do(func() {
		ts.models, ts.err = core.Train(st.platform, st.spec.TrainingPlan(fam), core.TrainOptions{})
	})
	return ts.models, ts.err
}

// Pretrain trains the default scenario's prediction models (the DNA
// family on the paper platform) eagerly; otherwise the first EML/SAML
// job for a scenario pays that scenario's one-time training cost.
func (s *Server) Pretrain() error {
	st, err := s.platformFor("paper")
	if err != nil {
		return err
	}
	fam, err := scenario.FamilyByName("dna")
	if err != nil {
		return err
	}
	_, err = s.trainedModels(st, fam)
	return err
}

// applyDefaults fills a raw request's workload/platform from the
// server's configured defaults before normalization.
func (s *Server) applyDefaults(r *TuneRequest) {
	if r.Workload == "" && r.Genome == "" {
		r.Workload = s.opt.DefaultWorkload
	}
	if r.Platform == "" {
		r.Platform = s.opt.DefaultPlatform
	}
}

// handleScenarios answers GET /v1/scenarios with the catalog of
// registered workload families and platform specs — every valid value
// of TuneRequest.Workload and TuneRequest.Platform.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	s.met.request("scenarios")
	writeJSON(w, http.StatusOK, Scenarios())
}

// Scenarios assembles the wire form of the registered scenario catalog.
func Scenarios() ScenariosResponse {
	var resp ScenariosResponse
	for _, f := range scenario.Families() {
		ww := WorkloadWire{
			Name:        f.Name,
			Description: f.Description,
			Class:       string(f.Class),
			Default:     f.Presets[0].Name,
		}
		for _, p := range f.Presets {
			qualified := p.Qualified(f)
			ww.Presets = append(ww.Presets, PresetWire{Name: p.Name, Workload: qualified, SizeMB: p.SizeMB})
			if canon, err := scenario.CanonicalWorkloadName(p.Name); err == nil && canon == qualified {
				ww.Aliases = append(ww.Aliases, strings.ToLower(p.Name))
			}
		}
		resp.Workloads = append(resp.Workloads, ww)
	}
	for _, p := range scenario.Platforms() {
		pw := PlatformWire{
			Name:        p.Name,
			Description: p.Description,
			Host:        p.Host().Name,
			Device:      p.Device().Name,
		}
		if schema, err := p.Schema(); err == nil {
			pw.Configurations = schema.Size()
		}
		resp.Platforms = append(resp.Platforms, pw)
	}
	return resp
}

// runTune executes one canonical request on the strategy layer.
func (s *Server) runTune(req TuneRequest) (TuneResult, error) {
	fam, w, err := req.workload()
	if err != nil {
		return TuneResult{}, err
	}
	st, err := s.platformFor(req.Platform)
	if err != nil {
		return TuneResult{}, err
	}
	method, err := core.ParseMethod(req.Method)
	if err != nil {
		return TuneResult{}, err
	}
	strat, err := core.ParseStrategy(req.Strategy)
	if err != nil {
		return TuneResult{}, err
	}
	// Normalize guarantees the exact-only knobs are zero for every
	// other strategy.
	strat = strategy.WithExactKnobs(strat, req.Prove, req.PoolSize, req.PoolGap)
	if fam.IsDAG() {
		return s.runDAGTune(req, st, method, strat)
	}

	e, err := s.workloadFor(workloadKey{platform: req.Platform, name: w.Name, sizeMB: w.SizeMB}, st, w)
	if err != nil {
		return TuneResult{}, err
	}
	inst := e.shared.Instance()
	if method.UsesML() {
		pred, err := s.predictor(e, st, fam, w)
		if err != nil {
			return TuneResult{}, err
		}
		inst.Predictor = pred
	}

	opt := core.Options{
		Iterations:  req.Iterations,
		Seed:        req.Seed,
		Restarts:    req.Restarts,
		Parallelism: s.opt.Parallelism,
		Strategy:    strat,
	}

	if req.Objective == "bounded" {
		timeRes, energyRes, err := core.RunWithTimeSlack(method, &inst, opt, req.Slack)
		if err != nil {
			return TuneResult{}, err
		}
		out := tuneResult(energyRes)
		ref := tuneResult(timeRes)
		out.TimeReference = &ref
		return out, nil
	}

	obj, err := core.ParseObjective(req.Objective, req.Alpha)
	if err != nil {
		return TuneResult{}, err
	}
	opt.Objective = obj
	res, err := core.Run(method, &inst, opt)
	if err != nil {
		return TuneResult{}, err
	}
	return tuneResult(res), nil
}

// runDAGTune executes one canonical DAG placement request: the graph
// simulator replaces the measurement substrate, and the method's preset
// explorer maps onto the placement search — EM/EML enumerate the 2^n
// placements, SAM/SAML anneal; an explicit strategy overrides either.
// The ML methods have no separate prediction phase here (the simulator
// is already a model), so EML/SAML behave like EM/SAM on graphs.
func (s *Server) runDAGTune(req TuneRequest, st *platformState, method core.Method, strat strategy.Strategy) (TuneResult, error) {
	fam, preset, err := scenario.Resolve(req.Workload)
	if err != nil {
		return TuneResult{}, err
	}
	g, err := fam.Graph(preset.Name)
	if err != nil {
		return TuneResult{}, err
	}
	sim, err := st.spec.DAGSim(g)
	if err != nil {
		return TuneResult{}, err
	}
	if strat == nil { // "auto": the method's preset explorer
		if method.UsesAnnealing() {
			strat = strategy.DefaultAnneal()
		} else {
			strat = strategy.Exhaustive{}
		}
	}
	res, err := graph.Tune(sim, strat, strategy.Options{
		Budget:      req.Iterations,
		Seed:        req.Seed,
		Restarts:    req.Restarts,
		Parallelism: s.opt.Parallelism,
	})
	if err != nil {
		return TuneResult{}, err
	}
	return dagTuneResult(method, sim, res), nil
}

// Endpoints lists the service's routes in presentation order (used by
// the CLI's startup banner).
func Endpoints() []string {
	return []string{
		"POST /v1/jobs",
		"POST /v1/jobs:batch",
		"GET  /v1/jobs/{id}",
		"GET  /v1/scenarios",
		"GET  /v1/healthz",
		"GET  /v1/metrics",
	}
}
