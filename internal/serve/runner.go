package serve

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"hetopt/internal/core"
	"hetopt/internal/graph"
	"hetopt/internal/offload"
	"hetopt/internal/scenario"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// Runner executes normalized tune requests: request → core or graph
// run → TuneResult. It shares one measurement memo per workload and one
// trained model pair per (platform, family) across every request it
// runs. A Server runs its cold jobs on its Runner and cmd/hetopt runs
// its flags on another, so the CLI answers exactly what the service
// answers. A Runner is safe for concurrent use.
type Runner struct {
	// paperPlatform and paperSchema, when set, replace the registry's
	// "paper" substrate (Options.Platform and Options.Schema).
	paperPlatform *offload.Platform
	paperSchema   *space.Schema

	platMu    sync.Mutex
	platforms map[string]*platformState

	trainMu sync.Mutex
	trained map[trainKey]*trainState

	evalMu    sync.Mutex
	workloads map[workloadKey]*workloadEntry
	wlOrder   []workloadKey
}

// NewRunner returns a Runner over the scenario registry; a non-nil
// platform or schema replaces the "paper" platform's substrate.
func NewRunner(platform *offload.Platform, schema *space.Schema) *Runner {
	return &Runner{
		paperPlatform: platform,
		paperSchema:   schema,
		platforms:     map[string]*platformState{},
		trained:       map[trainKey]*trainState{},
		workloads:     map[workloadKey]*workloadEntry{},
	}
}

// platformState is the lazily built per-platform substrate shared by
// every job on that platform.
type platformState struct {
	spec     scenario.PlatformSpec
	platform *offload.Platform
	schema   *space.Schema

	// sims holds the platform's graph simulator of each DAG preset,
	// keyed by the preset's qualified name and built on first use under
	// simMu. A simulator is a pure function of (platform, preset) —
	// Normalize refuses any other size for a task graph — and read-only
	// once built, so every placement on the preset shares one. The
	// registry bounds the keys, so nothing is evicted.
	simMu sync.Mutex
	sims  map[string]*graph.Sim
}

// dagSim returns the platform's simulator of a DAG preset, building it
// on first use. It prices the registry's platform spec, never the paper
// override, as every DAG run does.
func (st *platformState) dagSim(fam scenario.Family, preset scenario.SizePreset) (*graph.Sim, error) {
	key := preset.Qualified(fam)
	st.simMu.Lock()
	defer st.simMu.Unlock()
	if sim, ok := st.sims[key]; ok {
		return sim, nil
	}
	g, err := fam.Graph(preset.Name)
	if err != nil {
		return nil, err
	}
	sim, err := st.spec.DAGSim(g)
	if err != nil {
		return nil, err
	}
	st.sims[key] = sim
	return sim, nil
}

// platformFor resolves a canonical platform name into its shared state,
// building it on first use.
func (r *Runner) platformFor(name string) (*platformState, error) {
	r.platMu.Lock()
	defer r.platMu.Unlock()
	if st, ok := r.platforms[name]; ok {
		return st, nil
	}
	spec, err := scenario.PlatformByName(name)
	if err != nil {
		return nil, err
	}
	st := &platformState{spec: spec, sims: map[string]*graph.Sim{}}
	if name == "paper" && r.paperPlatform != nil {
		st.platform = r.paperPlatform
	} else {
		st.platform = spec.Platform()
	}
	if name == "paper" && r.paperSchema != nil {
		st.schema = r.paperSchema
	} else {
		st.schema, err = spec.Schema()
		if err != nil {
			return nil, err
		}
	}
	r.platforms[name] = st
	return st, nil
}

// workloadKey identifies the shared evaluation state of one workload on
// one platform.
type workloadKey struct {
	platform string
	name     string
	sizeMB   float64
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

// workloadFor returns a normalized divisible request's platform state
// and the shared entry of its workload w, creating the entry on first
// use. Every concurrent job for the same workload funnels its
// measurements through one memo, so overlapping searches pay for each
// configuration once.
func (r *Runner) workloadFor(req TuneRequest, w offload.Workload) (*platformState, *workloadEntry, error) {
	st, err := r.platformFor(req.Platform)
	if err != nil {
		return nil, nil, err
	}
	k := workloadKey{platform: req.Platform, name: w.Name, sizeMB: w.SizeMB}
	r.evalMu.Lock()
	defer r.evalMu.Unlock()
	if e, ok := r.workloads[k]; ok {
		return st, e, nil
	}
	shared, err := core.NewSharedMeasurements(st.platform, w, st.schema)
	if err != nil {
		return nil, nil, err
	}
	e := &workloadEntry{shared: shared}
	r.workloads[k] = e
	r.wlOrder = append(r.wlOrder, k)
	if len(r.wlOrder) > maxWorkloads {
		delete(r.workloads, r.wlOrder[0])
		r.wlOrder = r.wlOrder[1:]
	}
	return st, e, nil
}

// predictor returns the workload's predictor, binding the trained
// models of its (platform, family) to it on first use. Its internal
// memo tables are concurrency-safe, so jobs share prediction work too.
func (r *Runner) predictor(e *workloadEntry, st *platformState, fam scenario.Family, w offload.Workload) (*core.Predictor, error) {
	e.predOnce.Do(func() {
		models, err := r.trainedModels(st, fam)
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

// train returns the train state of one (platform, family) pair, created
// on first use, and the pair's key.
func (r *Runner) train(st *platformState, fam scenario.Family) (*trainState, trainKey) {
	key := trainKey{platform: strings.ToLower(st.spec.Name), family: strings.ToLower(fam.Name)}
	r.trainMu.Lock()
	defer r.trainMu.Unlock()
	ts, ok := r.trained[key]
	if !ok {
		ts = &trainState{}
		r.trained[key] = ts
	}
	return ts, key
}

// trainedModels trains the prediction models for one (platform, family)
// pair exactly once (first ML job for it), on the registry's training
// plan for the pair, and replays the outcome afterwards.
func (r *Runner) trainedModels(st *platformState, fam scenario.Family) (*core.Models, error) {
	ts, _ := r.train(st, fam)
	ts.once.Do(func() {
		ts.models, ts.err = core.Train(st.platform, st.spec.TrainingPlan(fam), core.TrainOptions{})
	})
	return ts.models, ts.err
}

// Pretrain trains the default scenario's prediction models (the DNA
// family on the paper platform) eagerly; otherwise the first EML/SAML
// job for a scenario pays that scenario's one-time training cost.
func (r *Runner) Pretrain() error {
	_, _, err := r.Models(TuneRequest{Workload: "dna:human", Platform: "paper"}, "")
	return err
}

// Baselines measures the host-only and device-only reference
// configurations of a normalized divisible request through the
// workload's shared memo.
func (r *Runner) Baselines(req TuneRequest) (hostOnly, deviceOnly TuneResult, err error) {
	fam, w, err := req.workload()
	if err == nil && fam.IsDAG() {
		err = fmt.Errorf("serve: workload %s is a task graph; its baselines come with its result", req.Workload)
	}
	var e *workloadEntry
	if err == nil {
		_, e, err = r.workloadFor(req, w)
	}
	if err != nil {
		return TuneResult{}, TuneResult{}, err
	}
	inst := e.shared.Instance()
	h, err := core.HostOnlyBaseline(&inst)
	if err != nil {
		return TuneResult{}, TuneResult{}, err
	}
	d, err := core.DeviceOnlyBaseline(&inst)
	return tuneResult(h), tuneResult(d), err
}

// modelFileVersion names the format and the trainer of a model file.
const modelFileVersion = 1

// modelFileKey heads a model file, ahead of its core.Models bundle: the
// train key the models were trained for.
type modelFileKey struct {
	Version          int
	Platform, Family string
}

// Models returns the prediction models of a normalized divisible
// request's (platform, family) pair, training them on first use. A
// non-empty cache names a model file. A file saved for the same train
// key and version is loaded (loaded reports it); any other file —
// missing, corrupt, trained for another pair, or written before files
// carried their key — is retrained and atomically rewritten.
func (r *Runner) Models(req TuneRequest, cache string) (models *core.Models, loaded bool, err error) {
	fam, _, err := scenario.Resolve(req.Workload)
	if err == nil && fam.IsDAG() {
		err = fmt.Errorf("serve: workload %s is a task graph; it has no prediction models", req.Workload)
	}
	var st *platformState
	if err == nil {
		st, err = r.platformFor(req.Platform)
	}
	if err != nil {
		return nil, false, err
	}
	ts, key := r.train(st, fam)
	want := modelFileKey{Version: modelFileVersion, Platform: key.platform, Family: key.family}
	if cache != "" {
		data, _ := os.ReadFile(cache)
		br := bytes.NewReader(data)
		var got modelFileKey
		if gob.NewDecoder(br).Decode(&got) == nil && got == want {
			if m, err := core.LoadModels(br); err == nil {
				ts.once.Do(func() { ts.models = m })
				loaded = true
			}
		}
	}
	models, err = r.trainedModels(st, fam)
	if err != nil || cache == "" || loaded {
		return models, loaded, err
	}
	f, err := os.CreateTemp(filepath.Dir(cache), filepath.Base(cache)+".tmp*")
	if err != nil {
		return nil, false, err
	}
	defer os.Remove(f.Name()) // fails harmlessly once renamed
	err = gob.NewEncoder(f).Encode(want)
	if err == nil {
		err = models.Save(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), cache)
	}
	return models, false, err
}

// Run executes one normalized request with the given per-request search
// parallelism (<= 1 runs sequentially); results are bit-identical at
// every level.
func (r *Runner) Run(req TuneRequest, parallelism int) (TuneResult, error) {
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
	fam, w, err := req.workload()
	if err != nil {
		return TuneResult{}, err
	}
	if fam.IsDAG() {
		return r.runDAG(req, method, strat, parallelism)
	}
	st, e, err := r.workloadFor(req, w)
	if err != nil {
		return TuneResult{}, err
	}
	inst := e.shared.Instance()
	if method.UsesML() {
		pred, err := r.predictor(e, st, fam, w)
		if err != nil {
			return TuneResult{}, err
		}
		inst.Predictor = pred
	}

	opt := core.Options{
		Iterations:  req.Iterations,
		Seed:        req.Seed,
		Restarts:    req.Restarts,
		Parallelism: parallelism,
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

// runDAG executes one normalized DAG placement request: the graph
// simulator replaces the measurement substrate, and the method's preset
// explorer maps onto the placement search — EM/EML enumerate the 2^n
// placements, SAM/SAML anneal; an explicit strategy overrides either.
// The ML methods have no separate prediction phase here (the simulator
// is already a model), so EML/SAML behave like EM/SAM on graphs.
func (r *Runner) runDAG(req TuneRequest, method core.Method, strat strategy.Strategy, parallelism int) (TuneResult, error) {
	st, err := r.platformFor(req.Platform)
	if err != nil {
		return TuneResult{}, err
	}
	fam, preset, err := scenario.Resolve(req.Workload)
	if err != nil {
		return TuneResult{}, err
	}
	sim, err := st.dagSim(fam, preset)
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
		Parallelism: parallelism,
	})
	if err != nil {
		return TuneResult{}, err
	}
	return dagTuneResult(method, sim, res), nil
}
