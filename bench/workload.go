package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"hetopt/internal/scenario"
	"hetopt/internal/serve"
)

// A workload is one traffic mix. Each stresses different layers, so an
// optimisation of one layer shows on one workload and, predictably,
// not on another.
type workloadSpec struct {
	name  string
	nodes int // 1: a single serve.Server; 3: a replicated cluster
	// classes are the request classes the workload sends; class_p50_ms
	// summarizes their medians. tails are the classes whose p99 enters
	// class_p99_ms: those with at least 1,000 answers in a full run.
	classes, tails []uint8
}

var workloads = []workloadSpec{
	// Every answer comes from the warm store: only serve
	// (decode, Normalize, AppendKey, PeekWarm, write) and net/http work.
	{"warm-hits", 1, []uint8{classWarm}, []uint8{classWarm}},
	// Distinct divisible requests that all miss the store: core,
	// strategy, anneal, search, perf+offload; model training shows in
	// set-up.
	{"cold-tune", 1, []uint8{classCold}, []uint8{classCold}},
	// Exact proofs and DAG placements over 117 workload keys, more than
	// the server's 64-entry shared-memo map.
	{"prove-place", 1, []uint8{classProof, classPlacement}, []uint8{classProof, classPlacement}},
	// Reads beside new-key writes and scatter-gather batches on a
	// replicated cluster, two in three landing on a non-owner. Batches
	// are 1% of requests, too few for a p99.
	{"cluster-mix", 3, []uint8{classWarm, classCold, classBatch}, []uint8{classWarm, classCold}},
}

// Request classes. The generator assigns each request its class, and
// the checks verify the answer matches it: a warm request is answered
// from the store, every other job is computed.
const (
	classWarm uint8 = iota
	classCold
	classBatch
	classProof
	classPlacement
	numClasses
)

var classNames = [numClasses]string{"warm", "cold", "batch", "proof", "placement"}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(names, ", "))
}

// scale sizes one run. fullScale is what BENCHMARK.json runs; tests run
// a much smaller one with every check on.
type scale struct {
	seconds     float64 // timed phase length
	minSamples  int     // the timed phase also runs until this many answers
	setupMin    int     // set-ups per run, at least; setup_s is their median
	setupBudget float64 // seconds: more set-ups (up to 50) while the total stays under it
	warmup      int     // requests sent after set-up, before the heap and the timed phase
	warmKeys    int     // warm-hits key count
	clusterKeys int     // keys cluster-mix warms in set-up
}

var fullScale = scale{seconds: 15, minSamples: 4000, setupMin: 3, setupBudget: 2, warmup: 500, warmKeys: 2048, clusterKeys: 512}

// op is one HTTP request of a workload: a job POST with its canonical
// request and store key, or a batch POST with its expanded members.
type op struct {
	node    int // index of the node the client sends it to
	class   uint8
	key     string
	req     serve.TuneRequest
	body    []byte
	members []serve.TuneRequest // batch members; nil for a job
}

// plan is a workload's generated input: the requests set-up sends (each
// waits for its answer) and the timed request stream. stream(i) is a
// pure function of the seed and i, so the server only ever receives
// generated requests, the same seed gives the same requests, and
// clients can take requests in any order.
type plan struct {
	setup  []op
	stream func(i int) (op, error)
}

var platforms = []string{"paper", "gpu-like", "edge"}

// catalog lists the workload presets requests draw from.
type catalog struct {
	divisible []string // the 13 divisible presets, "family:preset"
	families  []string // the divisible families' default presets, one per family
	dags      []string // the 3 task-graph presets
	sizeMB    map[string]float64
}

func loadCatalog() catalog {
	c := catalog{sizeMB: map[string]float64{}}
	for _, f := range scenario.Families() {
		for i, p := range f.Presets {
			q := p.Qualified(f)
			c.sizeMB[q] = p.SizeMB
			switch {
			case f.IsDAG():
				c.dags = append(c.dags, q)
			default:
				c.divisible = append(c.divisible, q)
				if i == 0 {
					c.families = append(c.families, q)
				}
			}
		}
	}
	return c
}

// hrand is a counter-based generator: the draws for request i depend on
// (seed, i) alone, so a stream can be generated out of order by several
// client goroutines without changing a single request.
type hrand struct{ s uint64 }

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func newHrand(seed int64, i int, salt uint64) hrand {
	return hrand{mix64(mix64(uint64(seed)^salt) + uint64(i))}
}

func (h *hrand) next() uint64   { h.s = mix64(h.s); return h.s }
func (h *hrand) intn(n int) int { return int(h.next() % uint64(n)) }
func (h *hrand) float() float64 { return float64(h.next()>>11) / (1 << 53) }

func pick[T any](h *hrand, xs []T) T { return xs[h.intn(len(xs))] }

// zipf draws ranks 0..n-1 with P(k) proportional to (k+1)^-s, the law
// math/rand's Zipf uses with v = 1, by inverting its cumulative table.
type zipf []float64

func newZipf(s float64, n int) zipf {
	cdf := make(zipf, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func (z zipf) draw(h *hrand) int {
	return min(sort.SearchFloat64s(z, h.float()), len(z)-1)
}

// Stream tags keep the request seeds of different streams apart, so no
// two generated requests share a store key by accident.
const (
	tagWarm = iota + 1
	tagCold
	tagProve
	tagClusterSetup
	tagClusterStream
	tagTrain
	tagProbe
	tagWarmStream
)

// reqSeed is the request-level search seed of request i of a stream:
// unique per (benchmark seed, stream, i).
func reqSeed(seed int64, tag, i int) int64 {
	return seed<<28 + int64(tag)<<24 + int64(i)
}

// jobOp canonicalizes r and renders its canonical JSON body.
func jobOp(r serve.TuneRequest, class uint8, node int) (op, error) {
	n, err := r.Normalize()
	if err != nil {
		return op{}, fmt.Errorf("generating %+v: %w", r, err)
	}
	body, err := json.Marshal(n)
	if err != nil {
		return op{}, err
	}
	return op{node: node, class: class, key: n.Key(), req: n, body: body}, nil
}

var (
	iterationChoices = []int{500, 1000, 2000}
	restartChoices   = []int{1, 2, 4}
	alphaChoices     = []float64{0.25, 0.5, 0.75}
	sweepAlphas      = []float64{0, 0.25, 0.5, 0.75, 1}
)

func newPlan(name string, seed int64, sc scale) (*plan, error) {
	cat := loadCatalog()
	switch name {
	case "warm-hits":
		return warmHitsPlan(seed, sc, cat)
	case "cold-tune":
		return coldTunePlan(seed, cat)
	case "prove-place":
		return provePlacePlan(seed, cat)
	case "cluster-mix":
		return clusterMixPlan(seed, sc, cat)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// warmHitsPlan warms sc.warmKeys keys in set-up — SAM with 300
// iterations, one in 16 a DAG placement, one in 64 an exact proof — and
// then repeats them Zipf(1.1)-distributed, each request in one of four
// spellings that normalize to the same key.
func warmHitsPlan(seed int64, sc scale, cat catalog) (*plan, error) {
	n := sc.warmKeys
	keys := make([]op, n)
	bodies := make([][4][]byte, n)
	for k := 0; k < n; k++ {
		h := newHrand(seed, k, tagWarm)
		r := serve.TuneRequest{Platform: pick(&h, platforms), Method: "sam", Iterations: 300, Seed: reqSeed(seed, tagWarm, k)}
		switch {
		case k%16 == 0:
			r.Workload = pick(&h, cat.dags)
		case k%64 == 1:
			r.Workload, r.Method, r.Strategy, r.Prove = pick(&h, cat.divisible), "em", "exact", true
		default:
			r.Workload = pick(&h, cat.divisible)
			if h.float() < 0.3 {
				r.Objective = "energy"
			}
		}
		o, err := jobOp(r, classCold, 0)
		if err != nil {
			return nil, err
		}
		keys[k] = o
		if bodies[k], err = spellings(o.req, o.key, cat); err != nil {
			return nil, err
		}
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	z := newZipf(1.1, n)
	return &plan{setup: keys, stream: func(i int) (op, error) {
		h := newHrand(seed, i, tagWarmStream)
		k := perm[z.draw(&h)]
		o := keys[k]
		o.class, o.body = classWarm, bodies[k][h.intn(4)]
		return o, nil
	}}, nil
}

// spellings renders four equivalent bodies of one canonical request:
// the canonical form; only non-default fields, in alphabetical order;
// upper-cased names with every default explicit; and a workload alias
// (genome name, bare family, or padded name). It fails unless all four
// normalize to key.
func spellings(n serve.TuneRequest, key string, cat catalog) ([4][]byte, error) {
	var out [4][]byte
	var err error
	if out[0], err = json.Marshal(n); err != nil {
		return out, err
	}
	minimal := map[string]any{"workload": n.Workload, "method": strings.ToLower(n.Method), "seed": n.Seed}
	if n.Platform != "paper" {
		minimal["platform"] = n.Platform
	}
	if n.Strategy != "auto" {
		minimal["strategy"] = n.Strategy
	}
	if n.Objective != "time" {
		minimal["objective"] = n.Objective
	}
	if n.Iterations != 1000 {
		minimal["iterations"] = n.Iterations
	}
	if n.Restarts != 1 {
		minimal["restarts"] = n.Restarts
	}
	if n.Prove {
		minimal["prove"] = true
	}
	if n.SizeMB != cat.sizeMB[n.Workload] {
		minimal["size_mb"] = n.SizeMB
	}
	if out[1], err = json.Marshal(minimal); err != nil {
		return out, err
	}
	loud := n
	loud.Workload, loud.Platform = strings.ToUpper(n.Workload), strings.ToUpper(n.Platform)
	loud.Strategy, loud.Objective = strings.ToUpper(n.Strategy), strings.ToUpper(n.Objective)
	if out[2], err = json.Marshal(loud); err != nil {
		return out, err
	}
	alias := n
	fam, preset, _ := strings.Cut(n.Workload, ":")
	f, p, _ := scenario.Resolve(fam)
	switch {
	case fam == "dna":
		alias.Workload, alias.Genome = "", preset
	case p.Qualified(f) == n.Workload:
		alias.Workload = fam
	default:
		alias.Workload = "  " + strings.ToUpper(fam) + ":" + preset + " "
	}
	if out[3], err = json.Marshal(alias); err != nil {
		return out, err
	}
	for i, b := range out {
		var r serve.TuneRequest
		if err := json.Unmarshal(b, &r); err != nil {
			return out, err
		}
		c, err := r.Normalize()
		if err != nil {
			return out, fmt.Errorf("spelling %d of %s: %w", i, key, err)
		}
		if c.Key() != key {
			return out, fmt.Errorf("spelling %d of %s normalizes to %s", i, key, c.Key())
		}
	}
	return out, nil
}

// coldTunePlan: every request is distinct, on the 13 divisible presets
// x 3 platforms: SAM 45% / SAML 45% / EM 5% / EML 5%; objectives time
// 50%, energy 20%, weighted 20%, bounded 10%. Set-up trains the models
// of every (platform, family) pair with one tiny SAML search each, keys
// no timed request repeats.
func coldTunePlan(seed int64, cat catalog) (*plan, error) {
	var setup []op
	for i, p := range platforms {
		for j, w := range cat.families {
			o, err := jobOp(serve.TuneRequest{Workload: w, Platform: p, Method: "saml", Iterations: 10, Seed: reqSeed(seed, tagTrain, i*len(cat.families)+j)}, classCold, 0)
			if err != nil {
				return nil, err
			}
			setup = append(setup, o)
		}
	}
	return &plan{setup: setup, stream: func(i int) (op, error) {
		h := newHrand(seed, i, tagCold)
		r := serve.TuneRequest{
			Workload:   pick(&h, cat.divisible),
			Platform:   pick(&h, platforms),
			Iterations: pick(&h, iterationChoices),
			Restarts:   pick(&h, restartChoices),
			Seed:       reqSeed(seed, tagCold, i),
		}
		switch u := h.float(); {
		case u < 0.45:
			r.Method = "sam"
		case u < 0.90:
			r.Method = "saml"
		case u < 0.95:
			r.Method = "em"
		default:
			r.Method = "eml"
		}
		switch u := h.float(); {
		case u < 0.5:
			r.Objective = "time"
		case u < 0.7:
			r.Objective = "energy"
		case u < 0.9:
			r.Objective, r.Alpha = "weighted", pick(&h, alphaChoices)
		default:
			r.Objective, r.Slack = "bounded", 0.1
		}
		return jobOp(r, classCold, 0)
	}}, nil
}

// provePlacePlan: half the requests are exact proofs on divisible
// spaces (sizes preset x {0.5, 1, 2}, optional solution pools), half
// are DAG placements by five different searches. Set-up readies every
// (platform, preset) pair the stream uses with one proof or placement
// at the preset's own size, keys no timed request repeats.
func provePlacePlan(seed int64, cat catalog) (*plan, error) {
	var setup []op
	for _, p := range platforms {
		var rs []serve.TuneRequest
		for _, w := range cat.divisible {
			rs = append(rs, serve.TuneRequest{Workload: w, Method: "em", Strategy: "exact", Prove: true})
		}
		for _, g := range cat.dags {
			rs = append(rs, serve.TuneRequest{Workload: g, Method: "em"})
		}
		for _, r := range rs {
			r.Platform, r.Seed = p, reqSeed(seed, tagProbe, len(setup))
			o, err := jobOp(r, classCold, 0)
			if err != nil {
				return nil, err
			}
			setup = append(setup, o)
		}
	}
	return &plan{setup: setup, stream: func(i int) (op, error) {
		h := newHrand(seed, i, tagProve)
		r := serve.TuneRequest{Platform: pick(&h, platforms), Seed: reqSeed(seed, tagProve, i)}
		if h.intn(2) == 0 {
			r.Workload = pick(&h, cat.divisible)
			r.SizeMB = cat.sizeMB[r.Workload] * pick(&h, []float64{0.5, 1, 2})
			r.Method, r.Strategy, r.Prove = "em", "exact", true
			r.PoolSize = pick(&h, []int{0, 4, 8})
			switch h.intn(3) {
			case 0:
				r.Objective = "time"
			case 1:
				r.Objective = "energy"
			default:
				r.Objective, r.Alpha = "weighted", pick(&h, alphaChoices)
			}
			return jobOp(r, classProof, 0)
		}
		r.Workload, r.Iterations = pick(&h, cat.dags), pick(&h, iterationChoices)
		switch h.intn(5) {
		case 0:
			r.Method = "em"
		case 1:
			r.Method = "sam"
		case 2:
			r.Method, r.Strategy, r.Prove = "em", "exact", true
		case 3:
			r.Method, r.Strategy = "sam", "genetic"
		default:
			r.Method, r.Strategy = "sam", "portfolio"
		}
		return jobOp(r, classPlacement, 0)
	}}, nil
}

// clusterWrite is a new-key request of the cluster mix: SAM on a
// divisible preset, one in four a DAG placement.
func clusterWrite(h *hrand, cat catalog, seed int64, tag, i int) serve.TuneRequest {
	r := serve.TuneRequest{Platform: pick(h, platforms), Method: "sam", Iterations: pick(h, []int{300, 500}), Seed: reqSeed(seed, tag, i)}
	if h.float() < 0.25 {
		r.Workload = pick(h, cat.dags)
	} else {
		r.Workload = pick(h, cat.divisible)
	}
	return r
}

// clusterMixPlan warms sc.clusterKeys keys in set-up, then sends request
// i to node i mod 3, in the proportions 85:13:1 — reads (Zipf(1.1) over
// the keys set-up completed), writes of new keys, and five-alpha
// batches.
func clusterMixPlan(seed int64, sc scale, cat catalog) (*plan, error) {
	setup := make([]op, sc.clusterKeys)
	for k := range setup {
		h := newHrand(seed, k, tagClusterSetup)
		o, err := jobOp(clusterWrite(&h, cat, seed, tagClusterSetup, k), classCold, k%3)
		if err != nil {
			return nil, err
		}
		setup[k] = o
	}
	perm := rand.New(rand.NewSource(seed ^ tagClusterStream)).Perm(sc.clusterKeys)
	z := newZipf(1.1, sc.clusterKeys)
	return &plan{setup: setup, stream: func(i int) (op, error) {
		h := newHrand(seed, i, tagClusterStream)
		var o op
		var err error
		switch u := h.intn(99); {
		case u < 85:
			o = setup[perm[z.draw(&h)]]
			o.class = classWarm
		case u < 98:
			o, err = jobOp(clusterWrite(&h, cat, seed, tagClusterStream, i), classCold, 0)
		default:
			t := clusterWrite(&h, cat, seed, tagClusterStream, i)
			t.Workload = pick(&h, cat.divisible) // sweeps price energy: divisible only
			o, err = batchOp(t)
		}
		o.node = i % 3
		return o, err
	}}, nil
}

// batchOp renders a five-alpha sweep of template t and canonicalizes its
// members the way the server expands them.
func batchOp(t serve.TuneRequest) (op, error) {
	body, err := json.Marshal(serve.BatchRequest{Template: &t, Alphas: sweepAlphas})
	if err != nil {
		return op{}, err
	}
	o := op{class: classBatch, body: body}
	for _, a := range sweepAlphas {
		m := t
		m.Objective, m.Alpha = "weighted", a
		n, err := m.Normalize()
		if err != nil {
			return op{}, err
		}
		o.members = append(o.members, n)
	}
	return o, nil
}
