package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hetopt/internal/core"
	"hetopt/internal/graph"
	"hetopt/internal/offload"
	"hetopt/internal/scenario"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// TuneRequest is the wire form of one tuning query: which workload to
// tune, with which method/strategy, under which objective, and with how
// much search budget. Absent fields select the documented defaults, and
// Normalize folds every request into a canonical form, so two requests
// that mean the same run — whatever their JSON field order or explicit
// defaults — share one warm-start store entry.
type TuneRequest struct {
	// Workload names a registered scenario workload: a family ("spmv"),
	// a qualified preset ("spmv:large", "dna:human"), or a bare preset
	// alias such as a genome name ("human"). Normalize canonicalizes it
	// to the "family:preset" form; empty defers to Genome, then to the
	// default "dna:human".
	Workload string `json:"workload,omitempty"`
	// Platform names a registered platform spec ("paper", "gpu-like",
	// "edge"); empty selects "paper".
	Platform string `json:"platform,omitempty"`
	// Genome names an evaluation genome ("human", "mouse", "cat",
	// "dog"). It predates the scenario catalog and remains accepted as a
	// workload alias; Normalize folds it into Workload.
	Genome string `json:"genome,omitempty"`
	// SizeMB overrides the workload size; zero selects the resolved
	// preset's size.
	SizeMB float64 `json:"size_mb,omitempty"`
	// Method is one of the paper's four methods (em, eml, sam, saml);
	// empty selects "saml".
	Method string `json:"method,omitempty"`
	// Strategy selects the search strategy (auto, anneal, exhaustive,
	// exact, genetic, tabu, local, random, portfolio); empty selects
	// "auto", the method's preset explorer.
	Strategy string `json:"strategy,omitempty"`
	// Objective is time, energy, weighted or bounded; empty selects
	// "time". "bounded" runs the two-phase constrained pipeline and the
	// result carries the time-optimal reference alongside.
	Objective string `json:"objective,omitempty"`
	// Alpha is the time weight in [0,1] for the weighted objective; it
	// is ignored (and canonicalized to zero) for every other objective.
	Alpha float64 `json:"alpha,omitempty"`
	// Slack is the non-negative makespan slack over the time optimum for
	// the bounded objective; ignored (canonicalized to zero) otherwise.
	Slack float64 `json:"slack,omitempty"`
	// Iterations is the search evaluation budget per worker; zero
	// selects 1000 (exhaustive enumeration ignores it).
	Iterations int `json:"iterations,omitempty"`
	// Restarts is the independent worker count (annealing chains,
	// heuristic restarts); zero or one runs a single worker.
	Restarts int `json:"restarts,omitempty"`
	// Seed drives the strategy's stochastic choices. Identical requests
	// (same seed included) return bit-identical results.
	Seed int64 `json:"seed,omitempty"`
	// PoolSize requests a diverse near-optimal solution pool of up to
	// this many entries from the exact strategy; PoolGap is the relative
	// objective window pool members may occupy above the optimum (zero
	// selects the default when a pool is requested). Both are exact-only
	// knobs: Normalize zeroes them (like Alpha outside "weighted") for
	// every other strategy.
	PoolSize int     `json:"pool_size,omitempty"`
	PoolGap  float64 `json:"pool_gap,omitempty"`
	// Prove lifts the exact strategy's per-subtree evaluation budget so
	// the run exhausts the tree and the certificate is a proof; zeroed
	// for every other strategy.
	Prove bool `json:"prove,omitempty"`
}

// Normalize validates the request and returns its canonical form:
// names lower/upper-cased to their parseable spellings, defaults made
// explicit, and fields that the selected objective ignores zeroed. Two
// requests describing the same run normalize to equal values (and hence
// equal Key strings), which is what makes the warm-start store
// deterministic.
func (r TuneRequest) Normalize() (TuneRequest, error) {
	n := r

	n.Workload = strings.ToLower(strings.TrimSpace(r.Workload))
	n.Genome = strings.ToLower(strings.TrimSpace(r.Genome))
	if n.Workload != "" && n.Genome != "" {
		return TuneRequest{}, fmt.Errorf("serve: set workload %q or genome %q, not both (genome is a workload alias)", r.Workload, r.Genome)
	}
	if n.Workload == "" {
		n.Workload = n.Genome // genome names are workload aliases
	}
	if n.Workload == "" {
		n.Workload = "dna:human"
	}
	fam, preset, err := scenario.Resolve(n.Workload)
	if err != nil {
		return TuneRequest{}, fmt.Errorf("serve: %w", err)
	}
	n.Workload = preset.Qualified(fam)
	n.Genome = "" // folded into the canonical workload
	isDAG := fam.IsDAG()

	n.Platform = strings.ToLower(strings.TrimSpace(r.Platform))
	if n.Platform == "" {
		n.Platform = "paper"
	}
	if _, err := scenario.PlatformByName(n.Platform); err != nil {
		return TuneRequest{}, fmt.Errorf("serve: %w", err)
	}

	if n.SizeMB < 0 || math.IsNaN(n.SizeMB) || math.IsInf(n.SizeMB, 0) {
		return TuneRequest{}, fmt.Errorf("serve: size_mb %g must be finite and non-negative", n.SizeMB)
	}
	if isDAG && n.SizeMB != 0 && n.SizeMB != preset.SizeMB {
		// A task graph's size is the sum of its node works; it cannot be
		// rescaled by a divisor the way a divisible kernel can. The
		// preset's own size is accepted so canonical requests re-normalize
		// to themselves.
		return TuneRequest{}, fmt.Errorf("serve: workload %s is a task graph (%g MB of node work); size_mb cannot rescale it — omit it", n.Workload, preset.SizeMB)
	}
	if n.SizeMB == 0 {
		n.SizeMB = preset.SizeMB
	}

	if strings.TrimSpace(r.Method) == "" {
		n.Method = "SAML"
	} else {
		m, err := core.ParseMethod(r.Method)
		if err != nil {
			return TuneRequest{}, fmt.Errorf("serve: %w", err)
		}
		n.Method = m.String()
	}

	n.Strategy = strings.ToLower(strings.TrimSpace(r.Strategy))
	if n.Strategy == "" {
		n.Strategy = "auto"
	}
	if _, err := core.ParseStrategy(n.Strategy); err != nil {
		return TuneRequest{}, fmt.Errorf("serve: %w", err)
	}

	n.Objective = strings.ToLower(strings.TrimSpace(r.Objective))
	if n.Objective == "" {
		n.Objective = "time"
	}
	switch n.Objective {
	case "time", "energy", "weighted", "bounded":
	default:
		return TuneRequest{}, fmt.Errorf("serve: unknown objective %q (want time, energy, weighted or bounded)", r.Objective)
	}
	if isDAG && n.Objective != "time" {
		return TuneRequest{}, fmt.Errorf("serve: workload %s is a task graph; the placement simulator prices time only (objective %q unsupported)", n.Workload, n.Objective)
	}
	if math.IsNaN(n.Alpha) || math.IsInf(n.Alpha, 0) || math.IsNaN(n.Slack) || math.IsInf(n.Slack, 0) {
		return TuneRequest{}, fmt.Errorf("serve: alpha %g and slack %g must be finite", n.Alpha, n.Slack)
	}
	if n.Objective == "weighted" {
		if n.Alpha < 0 || n.Alpha > 1 {
			return TuneRequest{}, fmt.Errorf("serve: weighted objective needs alpha in [0,1], got %g", n.Alpha)
		}
	} else {
		n.Alpha = 0
	}
	if n.Objective == "bounded" {
		if n.Slack < 0 {
			return TuneRequest{}, fmt.Errorf("serve: bounded objective needs slack >= 0, got %g", n.Slack)
		}
	} else {
		n.Slack = 0
	}

	if n.Iterations < 0 {
		return TuneRequest{}, fmt.Errorf("serve: iterations %d must be non-negative", n.Iterations)
	}
	if n.Iterations == 0 {
		n.Iterations = 1000
	}
	if n.Restarts < 0 {
		return TuneRequest{}, fmt.Errorf("serve: restarts %d must be non-negative", n.Restarts)
	}
	if n.Restarts == 0 {
		n.Restarts = 1
	}

	if math.IsNaN(n.PoolGap) || math.IsInf(n.PoolGap, 0) || n.PoolGap < 0 {
		return TuneRequest{}, fmt.Errorf("serve: pool_gap %g must be finite and non-negative", n.PoolGap)
	}
	if n.PoolSize < 0 {
		return TuneRequest{}, fmt.Errorf("serve: pool_size %d must be non-negative", n.PoolSize)
	}
	if n.Strategy == "exact" {
		if n.PoolSize > strategy.MaxPoolSize {
			n.PoolSize = strategy.MaxPoolSize
		}
		if n.PoolSize > 0 && n.PoolGap == 0 {
			n.PoolGap = strategy.DefaultPoolGap
		}
		if n.PoolSize == 0 {
			n.PoolGap = 0
		}
	} else {
		// Exact-only knobs are canonicalized away for every other
		// strategy, exactly like Alpha outside the weighted objective.
		n.PoolSize, n.PoolGap, n.Prove = 0, 0, false
	}
	return n, nil
}

// AppendKey appends the canonical store key of a normalized request to
// dst and returns the extended slice — the allocation-free form of Key
// the warm-hit fast path uses with a pooled buffer (the sharded store
// looks entries up by key bytes directly). The format is pinned by
// golden tests; Key is defined as string(AppendKey(...)), so the two
// are byte-identical by construction.
func (r TuneRequest) AppendKey(dst []byte) []byte {
	dst = append(dst, "w="...)
	dst = append(dst, r.Workload...)
	dst = append(dst, "|p="...)
	dst = append(dst, r.Platform...)
	dst = append(dst, "|mb="...)
	dst = strconv.AppendFloat(dst, r.SizeMB, 'g', -1, 64)
	dst = append(dst, "|m="...)
	dst = append(dst, r.Method...)
	dst = append(dst, "|s="...)
	dst = append(dst, r.Strategy...)
	dst = append(dst, "|o="...)
	dst = append(dst, r.Objective...)
	dst = append(dst, "|a="...)
	dst = strconv.AppendFloat(dst, r.Alpha, 'g', -1, 64)
	dst = append(dst, "|sl="...)
	dst = strconv.AppendFloat(dst, r.Slack, 'g', -1, 64)
	dst = append(dst, "|it="...)
	dst = strconv.AppendInt(dst, int64(r.Iterations), 10)
	dst = append(dst, "|r="...)
	dst = strconv.AppendInt(dst, int64(r.Restarts), 10)
	dst = append(dst, "|seed="...)
	dst = strconv.AppendInt(dst, r.Seed, 10)
	// The exact-only knobs join the key only for the exact strategy. No
	// other strategy ever sees non-zero values (Normalize zeroes them),
	// so every pre-existing key keeps its exact bytes.
	if r.Strategy == "exact" {
		dst = append(dst, "|ps="...)
		dst = strconv.AppendInt(dst, int64(r.PoolSize), 10)
		dst = append(dst, "|pg="...)
		dst = strconv.AppendFloat(dst, r.PoolGap, 'g', -1, 64)
		dst = append(dst, "|pr="...)
		dst = strconv.AppendBool(dst, r.Prove)
	}
	return dst
}

// Key returns the canonical store key of a normalized request. The
// server's per-job search parallelism is deliberately not part of the
// key: results are bit-identical at every parallelism level, so runs
// that differ only in worker count share one store entry. Its format
// is pinned by golden tests.
func (r TuneRequest) Key() string {
	var buf [192]byte
	return string(r.AppendKey(buf[:0]))
}

// workload resolves the normalized request's workload and family.
func (r TuneRequest) workload() (scenario.Family, offload.Workload, error) {
	fam, preset, err := scenario.Resolve(r.Workload)
	if err != nil {
		return scenario.Family{}, offload.Workload{}, err
	}
	w, err := fam.Workload(preset.Name)
	if err != nil {
		return scenario.Family{}, offload.Workload{}, err
	}
	if r.SizeMB > 0 {
		w = w.Scaled(r.SizeMB)
	}
	return fam, w, nil
}

// ConfigWire is the JSON form of a suggested system configuration.
type ConfigWire struct {
	HostThreads    int     `json:"host_threads"`
	HostAffinity   string  `json:"host_affinity"`
	DeviceThreads  int     `json:"device_threads"`
	DeviceAffinity string  `json:"device_affinity"`
	HostFraction   float64 `json:"host_fraction"`
}

// configWire converts a space.Config to its wire form.
func configWire(c space.Config) ConfigWire {
	return ConfigWire{
		HostThreads:    c.HostThreads,
		HostAffinity:   c.HostAffinity.String(),
		DeviceThreads:  c.DeviceThreads,
		DeviceAffinity: c.DeviceAffinity.String(),
		HostFraction:   c.HostFraction,
	}
}

// TuneResult is the JSON form of a completed run. It carries no
// wall-clock fields: every field is a pure function of the canonical
// request, so identical requests marshal to bit-identical bytes.
type TuneResult struct {
	// Method that produced the result.
	Method string `json:"method"`
	// Config is the suggested configuration; Distribution renders it
	// the way the paper writes ratios.
	Config       ConfigWire `json:"config"`
	Distribution string     `json:"distribution"`
	// SearchObjective is the best objective value the search saw
	// (predictions for EML/SAML, measurements for EM/SAM).
	SearchObjective float64 `json:"search_objective"`
	// TimeSec is the measured makespan of the suggested configuration;
	// HostSec/DeviceSec are the per-side times.
	TimeSec   float64 `json:"time_sec"`
	HostSec   float64 `json:"host_sec"`
	DeviceSec float64 `json:"device_sec"`
	// EnergyJ is the measured total energy; HostJ/DeviceJ per side.
	EnergyJ float64 `json:"energy_j"`
	HostJ   float64 `json:"host_j"`
	DeviceJ float64 `json:"device_j"`
	// Objective names what the search minimized and MeasuredObjective
	// is its value on the fair-comparison measurement.
	Objective         string  `json:"objective"`
	MeasuredObjective float64 `json:"measured_objective"`
	// SearchEvaluations counts evaluator calls; Experiments counts the
	// distinct configurations this job evaluated on the measurement
	// path. Both are pure functions of the canonical request (a job is
	// charged for a configuration even when the cross-job shared memo
	// served it from another job's measurement, so cache warmth never
	// leaks into the result); physically, shared measurements are run
	// once per workload across the whole server.
	SearchEvaluations int `json:"search_evaluations"`
	Experiments       int `json:"experiments"`
	// Placement carries the task-graph placement of a DAG workload run;
	// nil for divisible workloads, whose answer lives in Config. For DAG
	// results Config holds the per-side execution configurations the
	// simulator priced nodes at (host fraction = share of node work on
	// the host), and the energy fields are zero — the graph simulator
	// prices time only.
	Placement *PlacementWire `json:"placement,omitempty"`
	// Certificate carries the exact strategy's optimality certificate
	// and Pool its diverse near-optimal solutions; both are omitted for
	// heuristic runs, keeping their wire bytes identical to the
	// pre-certificate format.
	Certificate *CertificateWire `json:"certificate,omitempty"`
	Pool        []PoolEntryWire  `json:"pool,omitempty"`
	// TimeReference carries the time-optimal reference run of the
	// bounded objective's two-phase pipeline; nil for every other
	// objective.
	TimeReference *TuneResult `json:"time_reference,omitempty"`
}

// CertificateWire is the JSON form of a branch-and-bound optimality
// certificate (strategy.Certificate).
type CertificateWire struct {
	// Optimal reports a proof: the tree was exhausted, so no
	// configuration beats the answer under the search's evaluator.
	Optimal bool `json:"optimal"`
	// LowerBound is the certified bound on the best achievable objective
	// and Gap the relative distance (best - LowerBound) / |best|; a
	// proved certificate closes the gap to zero.
	LowerBound float64 `json:"lower_bound"`
	Gap        float64 `json:"gap"`
	// Explored and Pruned count search-tree states visited and discarded
	// by bound.
	Explored int `json:"explored"`
	Pruned   int `json:"pruned"`
}

// certificateWire converts a strategy certificate to its wire form.
func certificateWire(c *strategy.Certificate) *CertificateWire {
	if c == nil {
		return nil
	}
	return &CertificateWire{
		Optimal:    c.Optimal,
		LowerBound: c.LowerBound,
		Gap:        c.Gap,
		Explored:   c.Explored,
		Pruned:     c.Pruned,
	}
}

// PoolEntryWire is one member of the diverse solution pool: a decoded
// configuration (divisible workloads) or an encoded placement (task
// graphs), with the human-readable distribution and its objective value.
// Entries are sorted by objective; the first is the suggested optimum.
type PoolEntryWire struct {
	Config       *ConfigWire `json:"config,omitempty"`
	Encoded      string      `json:"encoded,omitempty"`
	Distribution string      `json:"distribution"`
	Objective    float64     `json:"objective"`
}

// PlacementWire is the JSON form of a tuned task-graph placement.
type PlacementWire struct {
	// Nodes lists every operator's assigned processor in topological
	// order; Encoded is the compact one-character-per-node 'h'/'d' form.
	Nodes   []NodePlacementWire `json:"nodes"`
	Encoded string              `json:"encoded"`
	// MakespanSec is the placement's simulated makespan; the three
	// baselines it is judged against follow.
	MakespanSec   float64 `json:"makespan_sec"`
	HostOnlySec   float64 `json:"host_only_sec"`
	DeviceOnlySec float64 `json:"device_only_sec"`
	RoundRobinSec float64 `json:"round_robin_sec"`
	// SpeedupVsHost is HostOnlySec / MakespanSec.
	SpeedupVsHost float64 `json:"speedup_vs_host"`
}

// NodePlacementWire is one operator's assignment in a PlacementWire.
type NodePlacementWire struct {
	Name   string `json:"name"`
	Device string `json:"device"`
}

// tuneResult converts a core.Result to its wire form.
func tuneResult(res core.Result) TuneResult {
	var pool []PoolEntryWire
	for _, e := range res.Pool {
		cw := configWire(e.Config)
		pool = append(pool, PoolEntryWire{
			Config:       &cw,
			Distribution: e.Config.String(),
			Objective:    e.Objective,
		})
	}
	return TuneResult{
		Certificate:       certificateWire(res.Cert),
		Pool:              pool,
		Method:            res.Method.String(),
		Config:            configWire(res.Config),
		Distribution:      res.Config.String(),
		SearchObjective:   res.SearchE,
		TimeSec:           res.Measured.E(),
		HostSec:           res.Measured.Host,
		DeviceSec:         res.Measured.Device,
		EnergyJ:           res.MeasuredEnergy.Total(),
		HostJ:             res.MeasuredEnergy.Host,
		DeviceJ:           res.MeasuredEnergy.Device,
		Objective:         res.Objective,
		MeasuredObjective: res.MeasuredObjective,
		SearchEvaluations: res.SearchEvaluations,
		Experiments:       res.Experiments,
	}
}

// dagTuneResult converts a completed placement search to the wire form.
// The divisible-result fields keep their meaning where one exists: the
// per-side times are each side's busy time, the measured objective is
// the makespan, and Config carries the side configurations the
// simulator priced nodes at.
func dagTuneResult(method core.Method, sim *graph.Sim, res graph.Result) TuneResult {
	rep := sim.Report(res.Placement)
	host, device := sim.SideNames()
	hostCfg, devCfg := sim.SideConfigs()
	pw := &PlacementWire{
		Encoded:       graph.PlacementString(res.Placement),
		MakespanSec:   res.MakespanSec,
		HostOnlySec:   res.HostOnlySec,
		DeviceOnlySec: res.DeviceOnlySec,
		RoundRobinSec: res.RoundRobinSec,
		SpeedupVsHost: res.SpeedupVsHost(),
	}
	w := sim.Workload()
	for i, side := range res.Placement {
		name := host
		if side&1 == graph.SideDevice {
			name = device
		}
		pw.Nodes = append(pw.Nodes, NodePlacementWire{Name: w.Nodes[i].Name, Device: name})
	}
	var pool []PoolEntryWire
	for _, e := range res.Pool {
		pool = append(pool, PoolEntryWire{
			Encoded:      graph.PlacementString(e.State),
			Distribution: sim.FormatPlacement(e.State),
			Objective:    e.Energy,
		})
	}
	return TuneResult{
		Certificate: certificateWire(res.Cert),
		Pool:        pool,
		Method:      method.String(),
		Config: ConfigWire{
			HostThreads:    hostCfg.Threads,
			HostAffinity:   hostCfg.Affinity.String(),
			DeviceThreads:  devCfg.Threads,
			DeviceAffinity: devCfg.Affinity.String(),
			HostFraction:   sim.HostWorkFraction(res.Placement),
		},
		Distribution:      sim.FormatPlacement(res.Placement),
		SearchObjective:   res.MakespanSec,
		TimeSec:           res.MakespanSec,
		HostSec:           rep.HostBusySec,
		DeviceSec:         rep.DeviceBusySec,
		Objective:         "time",
		MeasuredObjective: res.MakespanSec,
		SearchEvaluations: res.Evaluations,
		Experiments:       res.Evaluations,
		Placement:         pw,
	}
}

// JobState is the lifecycle phase of an async tuning job.
type JobState string

const (
	// JobQueued: accepted, waiting for a pool worker.
	JobQueued JobState = "queued"
	// JobRunning: executing on a pool worker.
	JobRunning JobState = "running"
	// JobDone: completed; Result is set.
	JobDone JobState = "done"
	// JobFailed: the run returned an error; Error is set.
	JobFailed JobState = "failed"
	// JobRejected: the bounded queue was full (batch submissions report
	// rejected members in-line; single submissions get a 429 instead).
	JobRejected JobState = "rejected"
)

// JobStatus is the wire form of one job, returned by POST /v1/jobs and
// GET /v1/jobs/{id}.
type JobStatus struct {
	// ID addresses the job at GET /v1/jobs/{id}; empty for rejected
	// batch members (they were never registered).
	ID string `json:"id,omitempty"`
	// State is the lifecycle phase.
	State JobState `json:"state"`
	// Cached reports that Result was served from the warm-start store
	// rather than paid for by this job.
	Cached bool `json:"cached"`
	// Request is the canonical (normalized) request; Key its store key.
	Request TuneRequest `json:"request"`
	Key     string      `json:"key"`
	// Result is set once State is done.
	Result *TuneResult `json:"result,omitempty"`
	// Error is set when State is failed or rejected.
	Error string `json:"error,omitempty"`
}

// BatchRequest is the wire form of POST /v1/jobs:batch: an explicit
// request list, a template expanded over a list of alphas (the
// bi-objective sweep: each alpha becomes one weighted-objective request,
// so one call maps the time/energy front), or both.
type BatchRequest struct {
	// Requests are submitted as-is.
	Requests []TuneRequest `json:"requests,omitempty"`
	// Template plus Alphas expands into len(Alphas) weighted-objective
	// requests sharing every other template field.
	Template *TuneRequest `json:"template,omitempty"`
	Alphas   []float64    `json:"alphas,omitempty"`
}

// MaxBatchMembers bounds the requests one batch may expand into. A
// batch is one HTTP exchange whose every member runs (or, in a
// cluster, is scattered to its owner) concurrently, so an unbounded
// list would fan a single request out into unbounded work.
const MaxBatchMembers = 1024

// expand flattens the batch into the submission list. A batch past
// MaxBatchMembers is refused before any member is built.
func (b BatchRequest) expand() ([]TuneRequest, error) {
	if n := len(b.Requests) + len(b.Alphas); n > MaxBatchMembers {
		return nil, fmt.Errorf("serve: batch expands to %d requests, more than the %d allowed", n, MaxBatchMembers)
	}
	reqs := append([]TuneRequest(nil), b.Requests...)
	if len(b.Alphas) > 0 {
		if b.Template == nil {
			return nil, fmt.Errorf("serve: batch alphas need a template request")
		}
		for _, a := range b.Alphas {
			t := *b.Template
			t.Objective = "weighted"
			t.Alpha = a
			reqs = append(reqs, t)
		}
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serve: batch contains no requests")
	}
	return reqs, nil
}

// BatchResponse reports one JobStatus per expanded request, in
// submission order.
type BatchResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// Metrics is the wire form of GET /v1/metrics.
type Metrics struct {
	// Requests counts HTTP requests per endpoint.
	Requests map[string]int64 `json:"requests"`
	// Jobs counts job lifecycle events. StoreHits is the number of jobs
	// answered from the warm-start store.
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Rejected  int64 `json:"rejected"`
		StoreHits int64 `json:"store_hits"`
	} `json:"jobs"`
	// Store is the warm-start store accounting: one lookup per
	// submitted job, Hits of which were served without a run.
	Store struct {
		Lookups   int64 `json:"lookups"`
		Hits      int64 `json:"hits"`
		Entries   int64 `json:"entries"`
		Evictions int64 `json:"evictions"`
	} `json:"store"`
	// Latency aggregates job service times, split into the warm-hit
	// fast path (submissions answered inline from the store) and the
	// cold-miss pool path (jobs that went through the queue). The
	// top-level counters are defined as the exact sums of the two
	// buckets, which is what makes the fast path observable: Count =
	// Warm.Count + Cold.Count and TotalMS = Warm.TotalMS + Cold.TotalMS.
	Latency struct {
		Count   int64         `json:"count"`
		TotalMS float64       `json:"total_ms"`
		MeanMS  float64       `json:"mean_ms"`
		Warm    LatencyBucket `json:"warm"`
		Cold    LatencyBucket `json:"cold"`
	} `json:"latency"`
	// Queue is the instantaneous pool state.
	Queue struct {
		Workers  int   `json:"workers"`
		Capacity int   `json:"capacity"`
		Depth    int64 `json:"depth"`
		Running  int64 `json:"running"`
	} `json:"queue"`
	// Cluster is the sharded-cluster routing and replication block;
	// omitted on a single-node server, keeping its wire bytes
	// identical to the pre-cluster format.
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
}

// LatencyBucket is one side of the warm/cold request-latency split.
type LatencyBucket struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
}

// Health is the wire form of GET /v1/healthz.
type Health struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
	Jobs    int    `json:"jobs"`
	Entries int    `json:"store_entries"`
}

// PresetWire is the JSON form of one workload size preset.
type PresetWire struct {
	// Name addresses the preset; Workload is the fully qualified
	// "family:preset" name accepted by TuneRequest.Workload.
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	SizeMB   float64 `json:"size_mb"`
}

// WorkloadWire is the JSON form of one registered workload family.
type WorkloadWire struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Class is the workload class ("dag" for task-graph families);
	// omitted for divisible families, the pre-graph-layer default.
	Class string `json:"class,omitempty"`
	// Default is the preset selected when only the family is named.
	Default string       `json:"default"`
	Presets []PresetWire `json:"presets"`
	// Aliases lists bare preset names that resolve to this family
	// (e.g. the genome names for "dna").
	Aliases []string `json:"aliases,omitempty"`
}

// PlatformWire is the JSON form of one registered platform spec.
type PlatformWire struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Host        string `json:"host"`
	Device      string `json:"device"`
	// Configurations is the size of the platform's configuration space.
	Configurations int `json:"configurations"`
}

// ScenariosResponse is the wire form of GET /v1/scenarios: the full
// catalog a client can tune against, i.e. every valid value of
// TuneRequest.Workload and TuneRequest.Platform.
type ScenariosResponse struct {
	Workloads []WorkloadWire `json:"workloads"`
	Platforms []PlatformWire `json:"platforms"`
}
