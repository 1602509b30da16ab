package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"

	"hetopt/internal/core"
	"hetopt/internal/graph"
	"hetopt/internal/offload"
	"hetopt/internal/scenario"
	"hetopt/internal/serve"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// warmPrefix starts every warm-hit body: the pre-rendered terminal
// status carries no job id, a cold ?wait=1 answer starts with one.
var warmPrefix = []byte(`{"state":"done","cached":true,`)

// keyState is what the run learned about one store key.
type keyState struct {
	req      serve.TuneRequest
	result   []byte // raw .result JSON of the first answer
	warmHash uint64 // FNV-64a of the first warm body; 0 until one arrives
}

// ledger checks every answer as it arrives and keeps one result per key
// for the checks that run after the timed phase. Safe for concurrent
// use by the client goroutines.
type ledger struct {
	mu     sync.Mutex
	keys   map[string]*keyState
	order  []string // keys in first-answer order
	failed int
	errs   []string // the first few failure messages
}

func newLedger() *ledger { return &ledger{keys: map[string]*keyState{}} }

func (l *ledger) failf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failLocked(fmt.Sprintf(format, args...))
}

func (l *ledger) failLocked(msg string) {
	l.failed++
	if len(l.errs) < 8 {
		l.errs = append(l.errs, msg)
	}
}

// statusWire is the part of a job status the checks read; Result keeps
// its exact bytes.
type statusWire struct {
	State  string          `json:"state"`
	Cached bool            `json:"cached"`
	Key    string          `json:"key"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// observeJob checks one job answer. A warm request must be answered
// from the store and any other job computed; a warm body must be
// byte-identical to the first warm body of its key; any answer's result
// must equal the first result of its key.
func (l *ledger) observeJob(o op, code int, body []byte) bool {
	if code != 200 {
		l.failf("%s: status %d: %.200s", o.key, code, body)
		return false
	}
	warm := bytes.HasPrefix(body, warmPrefix)
	if warm != (o.class == classWarm) {
		l.failf("%s: %s request answered with warm=%v", o.key, classNames[o.class], warm)
		return false
	}
	if warm {
		h := fnv.New64a()
		h.Write(body)
		sum := h.Sum64()
		l.mu.Lock()
		st := l.keys[o.key]
		if st != nil && st.warmHash != 0 {
			match := st.warmHash == sum
			if !match {
				l.failLocked(fmt.Sprintf("%s: warm body differs from the first warm body", o.key))
			}
			l.mu.Unlock()
			return match
		}
		l.mu.Unlock()
	}
	var st statusWire
	if err := json.Unmarshal(body, &st); err != nil {
		l.failf("%s: decoding answer: %v", o.key, err)
		return false
	}
	if !l.record(o.key, o.req, st) {
		return false
	}
	if warm {
		h := fnv.New64a()
		h.Write(body)
		l.mu.Lock()
		if s := l.keys[o.key]; s.warmHash == 0 {
			s.warmHash = h.Sum64()
		}
		l.mu.Unlock()
	}
	return true
}

// observeBatch checks a scatter-gather answer member by member.
func (l *ledger) observeBatch(o op, code int, body []byte) bool {
	if code != 200 {
		l.failf("batch: status %d: %.200s", code, body)
		return false
	}
	var resp struct {
		Jobs []statusWire `json:"jobs"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		l.failf("batch: decoding answer: %v", err)
		return false
	}
	if len(resp.Jobs) != len(o.members) {
		l.failf("batch: %d members answered, %d sent", len(resp.Jobs), len(o.members))
		return false
	}
	ok := true
	for i, m := range o.members {
		ok = l.record(m.Key(), m, resp.Jobs[i]) && ok
	}
	return ok
}

// record checks one terminal status against its key's first result.
func (l *ledger) record(key string, req serve.TuneRequest, st statusWire) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st.State != string(serve.JobDone) || st.Key != key || len(st.Result) == 0 {
		l.failLocked(fmt.Sprintf("%s: answer state %q key %q error %q", key, st.State, st.Key, st.Error))
		return false
	}
	s := l.keys[key]
	if s == nil {
		l.keys[key] = &keyState{req: req, result: append([]byte(nil), st.Result...)}
		l.order = append(l.order, key)
		return true
	}
	if !bytes.Equal(s.result, st.Result) {
		l.failLocked(fmt.Sprintf("%s: result differs from the first answer's", key))
		return false
	}
	return true
}

// digest is FNV-64a over the sorted (key, result bytes) pairs of the
// given keys. Two runs of one seed digest the same prefix of the same
// request list, so they agree exactly when every result is
// byte-identical.
func (l *ledger) digest(keys map[string]bool) string {
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	l.mu.Lock()
	defer l.mu.Unlock()
	h := fnv.New64a()
	for _, k := range sorted {
		h.Write([]byte(k))
		h.Write([]byte{0})
		if s := l.keys[k]; s != nil {
			h.Write(s.result)
		}
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// prefixKeys lists the keys of the set-up requests and of the first n
// stream requests: a part of the run that does not depend on speed.
func prefixKeys(p *plan, n int) (map[string]bool, error) {
	keys := map[string]bool{}
	for _, o := range p.setup {
		keys[o.key] = true
	}
	for i := 0; i < n; i++ {
		o, err := p.stream(i)
		if err != nil {
			return nil, err
		}
		if o.members == nil {
			keys[o.key] = true
		}
		for _, m := range o.members {
			keys[m.Key()] = true
		}
	}
	return keys, nil
}

// quality is the answer quality of the results a run returned.
type quality struct {
	gapPct, experimentsPct float64
	gapN, experimentsN     int
}

// oracle certifies optima. It runs branch-and-bound with Prove on the
// measurement path — the same measurements every result's measured
// objective comes from — so no result can beat it, and EM or proven
// exact answers must equal it.
type oracle struct {
	platforms map[string]*platformState
	optima    map[string]float64
}

type platformState struct {
	spec     scenario.PlatformSpec
	platform *offload.Platform
	schema   *space.Schema
}

func newOracle() *oracle {
	return &oracle{platforms: map[string]*platformState{}, optima: map[string]float64{}}
}

func (o *oracle) platform(name string) (*platformState, error) {
	if st, ok := o.platforms[name]; ok {
		return st, nil
	}
	spec, err := scenario.PlatformByName(name)
	if err != nil {
		return nil, err
	}
	schema, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	st := &platformState{spec: spec, platform: spec.Platform(), schema: schema}
	o.platforms[name] = st
	return st, nil
}

// proven fails unless a proof ended with an optimality certificate.
func proven(c *strategy.Certificate, err error) error {
	if err == nil && (c == nil || !c.Optimal) {
		err = fmt.Errorf("proof ended without an optimality certificate")
	}
	return err
}

// optimum returns the certified optimum of a canonical non-bounded
// request's (workload, size, platform, objective).
func (o *oracle) optimum(req serve.TuneRequest) (float64, error) {
	id := fmt.Sprintf("%s|%s|%g|%s|%g", req.Platform, req.Workload, req.SizeMB, req.Objective, req.Alpha)
	if v, ok := o.optima[id]; ok {
		return v, nil
	}
	st, err := o.platform(req.Platform)
	if err != nil {
		return 0, err
	}
	fam, preset, err := scenario.Resolve(req.Workload)
	if err != nil {
		return 0, err
	}
	var opt float64
	if fam.IsDAG() {
		g, err := fam.Graph(preset.Name)
		if err != nil {
			return 0, err
		}
		sim, err := st.spec.DAGSim(g)
		if err != nil {
			return 0, err
		}
		res, err := graph.Tune(sim, strategy.Exact{Prove: true}, strategy.Options{})
		opt = res.MakespanSec
		if err := proven(res.Cert, err); err != nil {
			return 0, fmt.Errorf("proving %s: %w", id, err)
		}
	} else {
		w, err := fam.Workload(preset.Name)
		if err != nil {
			return 0, err
		}
		obj, err := core.ParseObjective(req.Objective, req.Alpha)
		if err != nil {
			return 0, err
		}
		inst := &core.Instance{Schema: st.schema, Measurer: core.NewMeasurer(st.platform, w.Scaled(req.SizeMB))}
		res, err := core.Run(core.EM, inst, core.Options{Strategy: strategy.Exact{Prove: true}, Objective: obj})
		opt = res.MeasuredObjective
		if err := proven(res.Cert, err); err != nil {
			return 0, fmt.Errorf("proving %s: %w", id, err)
		}
	}
	o.optima[id] = opt
	return opt, nil
}

// mustEqualOptimum reports whether a request's search is exact on the
// measurement path: exhaustive enumeration of measurements, or a proof.
func mustEqualOptimum(req serve.TuneRequest) bool {
	if req.Method != "EM" && !(req.Method == "SAM" && req.Strategy == "exact") {
		return false
	}
	switch req.Strategy {
	case "auto", "exhaustive":
		return true
	case "exact":
		return req.Prove
	}
	return false
}

// verify checks every result against its certified optimum and returns
// the answer quality of the results of the given keys. It runs after
// the timed phase and is not timed.
func (l *ledger) verify(o *oracle, scored map[string]bool) (quality, error) {
	var q quality
	l.mu.Lock()
	defer l.mu.Unlock()
	// Sorted, so the float sums add up in the same order on every run
	// and the quality figures repeat bit for bit.
	keys := append([]string(nil), l.order...)
	sort.Strings(keys)
	for _, key := range keys {
		s := l.keys[key]
		var res serve.TuneResult
		if err := json.Unmarshal(s.result, &res); err != nil {
			return q, fmt.Errorf("%s: decoding result: %w", key, err)
		}
		st, err := o.platform(s.req.Platform)
		if err != nil {
			return q, err
		}
		score := scored[key]
		if res.Placement == nil && score {
			q.experimentsPct += 100 * float64(res.Experiments) / float64(st.schema.Size())
			q.experimentsN++
		}
		if s.req.Objective == "bounded" {
			continue
		}
		opt, err := o.optimum(s.req)
		if err != nil {
			return q, err
		}
		got := res.MeasuredObjective
		tol := 1e-9 * math.Abs(opt)
		switch {
		case got < opt-tol:
			l.failLocked(fmt.Sprintf("%s: result %.17g beats the certified optimum %.17g", key, got, opt))
		case mustEqualOptimum(s.req) && got > opt+tol:
			l.failLocked(fmt.Sprintf("%s: exact search returned %.17g, certified optimum %.17g", key, got, opt))
		}
		if score {
			q.gapPct += 100 * (got - opt) / opt
			q.gapN++
		}
	}
	if q.gapN > 0 {
		q.gapPct /= float64(q.gapN)
	}
	if q.experimentsN > 0 {
		q.experimentsPct /= float64(q.experimentsN)
	}
	return q, nil
}

// checkCluster verifies the cluster invariants: across the nodes each
// distinct key was computed exactly once (completed jobs minus store
// hits), and on every node the routing split adds up to the jobs
// request count.
func (l *ledger) checkCluster(ms []serve.Metrics) {
	computed := int64(0)
	for i, m := range ms {
		computed += m.Jobs.Completed - m.Jobs.StoreHits
		if m.Cluster == nil {
			l.failf("node %d: no cluster metrics", i)
			continue
		}
		if got, want := m.Cluster.Local+m.Cluster.Forwarded, m.Requests["jobs"]; got != want {
			l.failf("node %d: local+forwarded = %d, jobs requests = %d", i, got, want)
		}
	}
	l.mu.Lock()
	distinct := int64(len(l.order))
	l.mu.Unlock()
	if computed != distinct {
		l.failf("cluster computed %d results for %d distinct keys", computed, distinct)
	}
}

func (l *ledger) failures() (int, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed, strings.Join(l.errs, "; ")
}
