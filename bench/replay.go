package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"hetopt/internal/core"
	"hetopt/internal/graph"
	"hetopt/internal/offload"
	"hetopt/internal/scenario"
	"hetopt/internal/search"
	"hetopt/internal/serve"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// The library replay re-runs served requests through the layers' public
// functions, mirroring what serve does for a cold job, with a span
// around each call. Each replayed result must equal the served one,
// which keeps the replay from drifting away from the server.

// replayEval is the replay's two-level measurement memo: a per-job memo
// charging the job once per distinct configuration, in front of the
// per-workload memo shared across jobs, in front of the measurer. It
// counts the calls each level answers and times physical measurements.
type replayEval struct {
	job, shared *search.Memo[space.Config, offload.Measurement]
	meas        *core.Measurer

	calls, jobHits, charged, physical int64
	physicalNS                        int64
}

func (e *replayEval) Evaluate(cfg space.Config) (offload.Measurement, error) {
	e.calls++
	if v, ok, err := e.job.Get(cfg); ok {
		e.jobHits++
		return v, err
	}
	return e.job.Do(cfg, func() (offload.Measurement, error) {
		computed := false
		m, err := e.shared.Do(cfg, func() (offload.Measurement, error) {
			computed = true
			t := time.Now()
			m, err := e.meas.Evaluate(cfg)
			e.physicalNS += int64(time.Since(t))
			e.physical++
			return m, err
		})
		if err == nil && !computed {
			e.meas.Charge()
			e.charged++
		}
		return m, err
	})
}

// workloadKey names the shared state of one workload on one platform.
type workloadKey struct {
	platform, name string
	sizeMB         float64
}

// maxSharedMemos is the server's bound on per-workload shared state;
// the replay keeps the same bound so its sharing matches.
const maxSharedMemos = 64

type replayer struct {
	tr     *tracer
	or     *oracle
	memos  map[workloadKey]*search.Memo[space.Config, offload.Measurement]
	order  []workloadKey
	models map[string]*core.Models
	preds  map[workloadKey]*core.Predictor

	divisible, mismatches   int
	evaluations             int
	calls, jobHits, charged int64
	physical, physicalNS    int64
	runMS, selfMS, graphMS  []float64
	methodMS                map[string][]float64 // core.Run times by method label
	renderNS                []float64
	graphEvals              int
	exactMS                 []float64 // core.Run / graph.Tune with strategy.Exact
	exactNS                 int64
	explored, pruned        int64
	trainS                  float64
	trainExperiments        int
}

func newReplayer(tr *tracer, or *oracle) *replayer {
	return &replayer{tr: tr, or: or,
		memos:    map[workloadKey]*search.Memo[space.Config, offload.Measurement]{},
		models:   map[string]*core.Models{},
		preds:    map[workloadKey]*core.Predictor{},
		methodMS: map[string][]float64{},
	}
}

// observeExact adds one replayed exact solve: its time and its
// certificate's node counts.
func (r *replayer) observeExact(d time.Duration, c *strategy.Certificate) {
	r.exactMS = append(r.exactMS, float64(d)/1e6)
	r.exactNS += int64(d)
	if c != nil {
		r.explored += int64(c.Explored)
		r.pruned += int64(c.Pruned)
	}
}

func (r *replayer) sharedMemo(k workloadKey) *search.Memo[space.Config, offload.Measurement] {
	if m, ok := r.memos[k]; ok {
		return m
	}
	m := search.NewShardedMemo[space.Config, offload.Measurement](16, search.HashConfig)
	r.memos[k] = m
	r.order = append(r.order, k)
	if len(r.order) > maxSharedMemos {
		delete(r.memos, r.order[0])
		r.order = r.order[1:]
	}
	return m
}

// predictor trains the (platform, family) models on first use, inside
// an ml.train span, and binds them to the workload.
func (r *replayer) predictor(k workloadKey, st *platformState, fam scenario.Family, w offload.Workload, parent uint32) (*core.Predictor, error) {
	if p, ok := r.preds[k]; ok {
		return p, nil
	}
	id := strings.ToLower(st.spec.Name + "|" + fam.Name)
	models, ok := r.models[id]
	if !ok {
		plan := st.spec.TrainingPlan(fam)
		t := time.Now()
		var err error
		models, err = core.Train(st.platform, plan, core.TrainOptions{})
		end := time.Now()
		r.tr.record(nameTrain, r.tr.newID(), parent, t, end)
		if err != nil {
			return nil, err
		}
		r.trainS += end.Sub(t).Seconds()
		r.trainExperiments += plan.HostExperiments() + plan.DeviceExperiments()
		r.models[id] = models
	}
	p, err := core.NewPredictor(models, w, st.platform.Model())
	if err != nil {
		return nil, err
	}
	r.preds[k] = p
	return p, nil
}

// replay re-runs one canonical request and compares the outcome with
// the served result bytes.
func (r *replayer) replay(key string, req serve.TuneRequest, served []byte) error {
	var want serve.TuneResult
	if err := json.Unmarshal(served, &want); err != nil {
		return fmt.Errorf("%s: decoding served result: %w", key, err)
	}
	root := r.tr.newID()
	t0 := time.Now()
	same, err := r.run(req, root, want)
	if err != nil {
		return fmt.Errorf("%s: replay: %w", key, err)
	}
	if !same {
		r.mismatches++
	}
	t := time.Now()
	_, err = json.Marshal(serve.JobStatus{State: serve.JobDone, Cached: true, Request: req, Key: key, Result: &want})
	end := time.Now()
	r.tr.record(nameRender, r.tr.newID(), root, t, end)
	r.renderNS = append(r.renderNS, float64(end.Sub(t)))
	r.tr.record(nameReplay, root, 0, t0, end)
	if err != nil {
		return err
	}
	if !same {
		return fmt.Errorf("%s: replayed result differs from the served result", key)
	}
	return nil
}

// run mirrors the server's handling of one cold request: resolve the
// scenario, build the measurer, memo and predictor, run the search.
func (r *replayer) run(req serve.TuneRequest, root uint32, want serve.TuneResult) (bool, error) {
	// The resolve span covers building the job's state; model training,
	// when this job pays it, is its child.
	resolve := r.tr.newID()
	t := time.Now()
	fam, preset, err := scenario.Resolve(req.Workload)
	if err != nil {
		return false, err
	}
	st, err := r.or.platform(req.Platform)
	if err != nil {
		return false, err
	}
	method, err := core.ParseMethod(req.Method)
	if err != nil {
		return false, err
	}
	strat, err := core.ParseStrategy(req.Strategy)
	if err != nil {
		return false, err
	}
	if ex, ok := strat.(strategy.Exact); ok {
		ex.Prove, ex.PoolSize, ex.PoolGap = req.Prove, req.PoolSize, req.PoolGap
		strat = ex
	}
	if fam.IsDAG() {
		g, err := fam.Graph(preset.Name)
		if err != nil {
			return false, err
		}
		sim, err := st.spec.DAGSim(g)
		if err != nil {
			return false, err
		}
		if strat == nil {
			if method.UsesAnnealing() {
				strat = strategy.DefaultAnneal()
			} else {
				strat = strategy.Exhaustive{}
			}
		}
		_, exact := strat.(strategy.Exact)
		t1 := time.Now()
		r.tr.record(nameResolve, resolve, root, t, t1)
		res, err := graph.Tune(sim, strat, strategy.Options{Budget: req.Iterations, Seed: req.Seed, Restarts: req.Restarts})
		t2 := time.Now()
		if exact {
			r.tr.record(nameExactRun, r.tr.newID(), root, t1, t2)
		} else {
			r.tr.record(nameGraphTune, r.tr.newID(), root, t1, t2)
		}
		if err != nil {
			return false, err
		}
		if exact {
			r.observeExact(t2.Sub(t1), res.Cert)
		} else {
			r.graphMS = append(r.graphMS, float64(t2.Sub(t1))/1e6)
			r.graphEvals += res.Evaluations
		}
		return sameDAG(want, res), nil
	}

	w, err := fam.Workload(preset.Name)
	if err != nil {
		return false, err
	}
	if req.SizeMB > 0 {
		w = w.Scaled(req.SizeMB)
	}
	wk := workloadKey{platform: req.Platform, name: w.Name, sizeMB: w.SizeMB}
	meas := core.NewMeasurer(st.platform, w)
	ev := &replayEval{
		job:    search.NewShardedMemo[space.Config, offload.Measurement](16, search.HashConfig),
		shared: r.sharedMemo(wk),
		meas:   meas,
	}
	inst := &core.Instance{Schema: st.schema, Measurer: meas, MeasureCache: ev}
	if method.UsesML() {
		if inst.Predictor, err = r.predictor(wk, st, fam, w, resolve); err != nil {
			return false, err
		}
	}
	opt := core.Options{Iterations: req.Iterations, Seed: req.Seed, Restarts: req.Restarts, Strategy: strat}
	var obj core.Objective
	if req.Objective != "bounded" {
		if obj, err = core.ParseObjective(req.Objective, req.Alpha); err != nil {
			return false, err
		}
		opt.Objective = obj
	}
	_, exact := strat.(strategy.Exact)
	label := strings.ToLower(req.Method)
	t1 := time.Now()
	r.tr.record(nameResolve, resolve, root, t, t1)
	var same bool
	var cert *strategy.Certificate
	if req.Objective == "bounded" {
		label = "bounded"
		timeRes, energyRes, err := core.RunWithTimeSlack(method, inst, opt, req.Slack)
		if err != nil {
			return false, err
		}
		same = want.TimeReference != nil && sameDivisible(want, energyRes) && sameDivisible(*want.TimeReference, timeRes)
		r.evaluations += timeRes.SearchEvaluations + energyRes.SearchEvaluations
		cert = energyRes.Cert
	} else {
		res, err := core.Run(method, inst, opt)
		if err != nil {
			return false, err
		}
		same = want.TimeReference == nil && sameDivisible(want, res)
		r.evaluations += res.SearchEvaluations
		cert = res.Cert
	}
	t2 := time.Now()
	if exact {
		label = "exact"
		r.tr.record(nameExactRun, r.tr.newID(), root, t1, t2)
		r.observeExact(t2.Sub(t1), cert)
	} else {
		r.tr.record(nameCoreRun, r.tr.newID(), root, t1, t2)
	}
	r.divisible++
	r.runMS = append(r.runMS, float64(t2.Sub(t1))/1e6)
	r.methodMS[label] = append(r.methodMS[label], float64(t2.Sub(t1))/1e6)
	r.selfMS = append(r.selfMS, float64(int64(t2.Sub(t1))-ev.physicalNS)/1e6)
	r.calls += ev.calls
	r.jobHits += ev.jobHits
	r.charged += ev.charged
	r.physical += ev.physical
	r.physicalNS += ev.physicalNS
	return same, nil
}

func sameCert(w *serve.CertificateWire, c *strategy.Certificate) bool {
	if w == nil || c == nil {
		return w == nil && c == nil
	}
	return w.Optimal == c.Optimal && w.Explored == c.Explored && w.Pruned == c.Pruned && w.Gap == c.Gap && w.LowerBound == c.LowerBound
}

// sameDivisible compares a served divisible result with a replayed one,
// field by field, floats bit for bit.
func sameDivisible(w serve.TuneResult, r core.Result) bool {
	return w.Method == r.Method.String() && w.Distribution == r.Config.String() &&
		w.SearchObjective == r.SearchE && w.TimeSec == r.Measured.E() && w.EnergyJ == r.MeasuredEnergy.Total() &&
		w.Objective == r.Objective && w.MeasuredObjective == r.MeasuredObjective &&
		w.SearchEvaluations == r.SearchEvaluations && w.Experiments == r.Experiments &&
		sameCert(w.Certificate, r.Cert) && len(w.Pool) == len(r.Pool)
}

// sameDAG compares a served placement result with a replayed one.
func sameDAG(w serve.TuneResult, r graph.Result) bool {
	return w.Placement != nil && w.Placement.Encoded == graph.PlacementString(r.Placement) &&
		w.MeasuredObjective == r.MakespanSec && w.SearchEvaluations == r.Evaluations &&
		sameCert(w.Certificate, r.Cert) && len(w.Pool) == len(r.Pool)
}
