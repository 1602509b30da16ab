package core

import (
	"math"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// dynamicWatts is the power noise floor times the power above idle each
// (threads, affinity) pair of b's schema draws while its side runs,
// indexed [threads][affinity], priced straight from the model's power
// functions.
type dynamicWatts struct{ host, dev [][]float64 }

func modelDynamicWatts(b *rooflineBounder) dynamicWatts {
	above := func(p float64, err error, idleW float64) float64 {
		if err != nil {
			return 0
		}
		return max(0, p-idleW)
	}
	v := b.schema.Values()
	var w dynamicWatts
	for _, th := range v.HostThreads {
		row := []float64{}
		for _, aff := range v.HostAffinities {
			p, err := b.model.HostActivePowerW(th, aff)
			row = append(row, b.hostPowerFloor*above(p, err, b.hostIdleW))
		}
		w.host = append(w.host, row)
	}
	for _, th := range v.DeviceThreads {
		row := []float64{}
		for _, aff := range v.DeviceAffinities {
			p, err := b.model.DeviceActivePowerW(th, aff)
			row = append(row, b.devicePowerFloor*above(p, err, b.devIdleW))
		}
		w.dev = append(w.dev, row)
	}
	return w
}

// referenceLowerBound is the roofline bound under obj of one node,
// computed the way the bounder did before it bounded a node's children
// in one call from precomputed vectors: an admissible bound on the
// objective of any configuration whose first `fixed` schema dimensions
// match prefix. The dynamic-energy term is the least over the node's
// allowed pairs, priced per node from the model's watts dw, and time
// and energy compose through obj.Value itself, not through the
// bounder's inlined copy of it. ChildBounds must agree with it bit for
// bit on every child.
func referenceLowerBound(b *rooflineBounder, obj Objective, dw dynamicWatts, prefix []int, fixed int) float64 {
	allowed := func(d, levels int) (int, int) {
		if d < fixed {
			return prefix[d], prefix[d] + 1
		}
		return 0, levels
	}
	htLo, htHi := allowed(space.ParamHostThreads, len(b.hostRate))
	haLo, haHi := allowed(space.ParamHostAffinity, len(b.hostFloor))
	dtLo, dtHi := allowed(space.ParamDeviceThreads, len(b.devRate))
	daLo, daHi := allowed(space.ParamDeviceAffinity, len(b.devRate[0]))
	hostRate, hostFloor := 0.0, math.Inf(1)
	for ti := htLo; ti < htHi; ti++ {
		for ai := haLo; ai < haHi; ai++ {
			if r := b.hostRate[ti][ai]; r > hostRate {
				hostRate = r
			}
		}
	}
	for ai := haLo; ai < haHi; ai++ {
		if f := b.hostFloor[ai]; f < hostFloor {
			hostFloor = f
		}
	}
	devRate := 0.0
	for ti := dtLo; ti < dtHi; ti++ {
		for ai := daLo; ai < daHi; ai++ {
			if r := b.devRate[ti][ai]; r > devRate {
				devRate = r
			}
		}
	}
	fLo, fHi := allowed(space.ParamHostFraction, len(b.hostMB))
	best := math.Inf(1)
	for fi := fLo; fi < fHi; fi++ {
		hostMB, devMB := b.hostMB[fi], b.devMB[fi]
		var tH, tD, lbE float64
		if hostMB > 0 {
			tH = hostFloor * hostMB * b.cx / hostRate
		}
		if devMB > 0 {
			transfer := devMB / b.pcieRateMBs
			tD = b.devFloor * (b.offloadSec + math.Max(devMB*b.cx/devRate, transfer) + b.residual*transfer)
		}
		// eH and eD are the least dynamic energy of any allowed pair:
		// the power noise floor times its dynamic watts times the
		// pair's own side-time bound.
		eH, eD := math.Inf(1), math.Inf(1)
		for ti := htLo; ti < htHi; ti++ {
			for ai := haLo; ai < haHi; ai++ {
				var sec float64
				if hostMB > 0 {
					sec = b.hostFloor[ai] * hostMB * b.cx / b.hostRate[ti][ai]
				}
				eH = min(eH, dw.host[ti][ai]*sec)
			}
		}
		for ti := dtLo; ti < dtHi; ti++ {
			for ai := daLo; ai < daHi; ai++ {
				var sec float64
				if devMB > 0 {
					transfer := devMB / b.pcieRateMBs
					sec = b.devFloor * (b.offloadSec + math.Max(devMB*b.cx/b.devRate[ti][ai], transfer) + b.residual*transfer)
				}
				eD = min(eD, dw.dev[ti][ai]*sec)
			}
		}
		lbT := math.Max(tH, tD)
		if hostMB > 0 {
			lbE += b.hostIdleW*b.hostPowerFloor*lbT + eH
		}
		if devMB > 0 {
			lbE += b.devIdleW*b.devicePowerFloor*lbT + eD
		}
		if v := obj.Value(lbT, lbE); v < best {
			best = v
		}
	}
	return best
}

// checkChildBounds walks every node of b's tree over schema and fails
// unless ChildBounds equals referenceLowerBound under obj, the
// objective b was built for, bit for bit on every child.
func checkChildBounds(t *testing.T, b *rooflineBounder, obj Objective, schema *space.Schema) {
	t.Helper()
	dw := modelDynamicWatts(b)
	sp := schema.Space()
	dim := sp.Dim()
	state := make([]int, dim)
	out := make([]float64, 0, 128)
	var walk func(d int)
	walk = func(d int) {
		if d == dim {
			return
		}
		n := sp.Params[d].Levels()
		out = out[:n]
		b.ChildBounds(state, d, out)
		got := append([]float64(nil), out...)
		for v := 0; v < n; v++ {
			state[d] = v
			if want := referenceLowerBound(b, obj, dw, state, d+1); math.Float64bits(got[v]) != math.Float64bits(want) {
				t.Fatalf("child %d of %v at depth %d: ChildBounds %g, reference %g", v, state[:d], d, got[v], want)
			}
			walk(d + 1)
		}
		state[d] = 0
	}
	walk(0)
}

// TestRooflineBoundAdmissible checks the pruning oracle's contract
// directly on a small schema (checkAdmissible); the external test
// package repeats it on every shipped platform's full schema.
func TestRooflineBoundAdmissible(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	checkAdmissible(t, smallSchema(t), platform, w)
}

// checkAdmissible walks every path of the bound tree over schema for
// each built-in objective: every child bound stays at or above its
// parent's (monotone) and at or below the measured objective of every
// configuration below it, and ChildBounds equals the per-node reference
// throughout. The time-bounded objective's bound is 1.1x the fastest
// measured makespan, the slack RunWithTimeSlack applies, so it binds.
func checkAdmissible(t *testing.T, schema *space.Schema, platform *offload.Platform, w offload.Workload) {
	t.Helper()
	meas := NewMeasurer(platform, w)
	fastest := math.Inf(1)
	for _, obj := range []Objective{
		TimeObjective{},
		EnergyObjective{},
		WeightedSumObjective{Alpha: 0.5},
		nil, // the time-bounded objective, once fastest is known
	} {
		if obj == nil {
			obj = TimeBoundedObjective{TimeBoundSec: 1.1 * fastest}
		}
		b := newRooflineBounder(schema, platform, w, obj)
		if b == nil {
			t.Fatalf("%s: no bounder for a measurable schema", obj.Name())
		}
		checkChildBounds(t, b, obj, schema)
		p := &boundedSearchProblem{
			searchProblem: &searchProblem{schema: schema, eval: meas, obj: obj},
			b:             b,
		}
		dim := schema.Space().Dim()
		state := make([]int, dim)
		// path[d] is the bound of the node state[:d].
		path := make([]float64, dim+1)
		path[0] = referenceLowerBound(b, obj, modelDynamicWatts(b), state, 0)
		outs := make([][]float64, dim)
		for d := range outs {
			outs[d] = make([]float64, schema.Space().Params[d].Levels())
		}
		var walk func(d int)
		walk = func(d int) {
			if d == dim {
				e, err := p.Energy(state)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := obj.(TimeObjective); ok {
					fastest = min(fastest, e)
				}
				for k, lb := range path {
					if lb > e {
						t.Fatalf("%s: depth-%d bound %g above measured %g at %v", obj.Name(), k, lb, e, state)
					}
				}
				return
			}
			out := outs[d]
			p.ChildBounds(state, d, out)
			for v, lb := range out {
				if lb < path[d] {
					t.Fatalf("%s: child %d of %v bound %g below its parent's %g", obj.Name(), v, state[:d], lb, path[d])
				}
				state[d], path[d+1] = v, lb
				walk(d + 1)
			}
			state[d] = 0
		}
		walk(0)
	}
}

// TestExactRunMatchesEnumeration is the acceptance check on a real
// schema: the exact strategy reproduces EM's optimum with a proved
// certificate while exploring strictly fewer states than the space
// holds.
func TestExactRunMatchesEnumeration(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	inst := &Instance{Schema: smallSchema(t), Measurer: NewMeasurer(platform, w)}

	em, err := Run(EM, inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Run(EM, inst, Options{Strategy: strategy.Exact{Prove: true, PoolSize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Config != em.Config || ex.SearchE != em.SearchE {
		t.Fatalf("exact found %v (%g), enumeration %v (%g)",
			ex.Config, ex.SearchE, em.Config, em.SearchE)
	}
	cert, ok := ex.Certificate()
	if !ok || !cert.Optimal || cert.Gap != 0 {
		t.Fatalf("exact run not certified: %+v (ok=%v)", cert, ok)
	}
	size := inst.Schema.Size()
	if cert.Explored+cert.Pruned != size {
		t.Fatalf("Explored+Pruned = %d+%d, want space size %d", cert.Explored, cert.Pruned, size)
	}
	if cert.Explored >= size || cert.Pruned == 0 {
		t.Fatalf("no real pruning: explored %d of %d (pruned %d)", cert.Explored, size, cert.Pruned)
	}
	if _, ok := em.Certificate(); ok {
		t.Fatal("plain enumeration must not fabricate a certificate")
	}
	if len(ex.Pool) == 0 || ex.Pool[0].Config != ex.Config || ex.Pool[0].Objective != ex.SearchE {
		t.Fatalf("pool[0] should be the optimum: %+v", ex.Pool)
	}
	for i := 1; i < len(ex.Pool); i++ {
		if ex.Pool[i].Objective < ex.Pool[i-1].Objective {
			t.Fatal("pool not sorted by objective")
		}
	}
}

// TestExactRunEnergyObjective repeats the equivalence under the energy
// objective, where the bound composes the idle-power floor.
func TestExactRunEnergyObjective(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	inst := &Instance{Schema: smallSchema(t), Measurer: NewMeasurer(platform, w)}
	opt := Options{Objective: EnergyObjective{}}

	em, err := Run(EM, inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	exOpt := opt
	exOpt.Strategy = strategy.Exact{Prove: true}
	ex, err := Run(EM, inst, exOpt)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Config != em.Config || ex.SearchE != em.SearchE {
		t.Fatalf("exact found %v (%g), enumeration %v (%g)",
			ex.Config, ex.SearchE, em.Config, em.SearchE)
	}
	cert, ok := ex.Certificate()
	if !ok || !cert.Optimal {
		t.Fatalf("energy run not certified: %+v", cert)
	}
	if math.Abs(cert.LowerBound-ex.SearchE) > 0 {
		t.Fatalf("proved certificate must close the bound: LB %g, best %g", cert.LowerBound, ex.SearchE)
	}
}

// TestMLPathStaysUnbounded pins the admissibility guard: prediction-path
// runs must not get roofline bounds (a regression could prune the
// predicted optimum), so an exact SAML-style run certifies by plain
// exhaustion.
func TestMLPathStaysUnbounded(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	models := testModels(t, platform)
	pred, err := NewPredictor(models, w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{Schema: smallSchema(t), Measurer: NewMeasurer(platform, w), Predictor: pred}
	res, err := Run(EML, inst, Options{Strategy: strategy.Exact{Prove: true}})
	if err != nil {
		t.Fatal(err)
	}
	cert, ok := res.Certificate()
	if !ok || !cert.Optimal {
		t.Fatalf("ML exact run should certify by exhaustion: %+v", cert)
	}
	if cert.Pruned != 0 || cert.Explored != inst.Schema.Size() {
		t.Fatalf("ML path must not prune: %+v", cert)
	}
}
