package scenario

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/graph"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// proofDigest folds the decided parts of exact runs into one FNV-64a
// stream: every float by its bits, every count as a little-endian word.
type proofDigest struct{ h hash.Hash64 }

func (d proofDigest) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d proofDigest) float(v float64) { d.word(math.Float64bits(v)) }

func (d proofDigest) int(v int) { d.word(uint64(int64(v))) }

func (d proofDigest) cert(c *strategy.Certificate) {
	if c == nil {
		d.int(-1)
		return
	}
	if c.Optimal {
		d.int(1)
	} else {
		d.int(0)
	}
	d.float(c.LowerBound)
	d.float(c.Gap)
	d.int(c.Explored)
	d.int(c.Pruned)
}

func (d proofDigest) config(c space.Config) {
	d.int(c.HostThreads)
	d.int(int(c.HostAffinity))
	d.int(c.DeviceThreads)
	d.int(int(c.DeviceAffinity))
	d.float(c.HostFraction)
}

func (d proofDigest) result(r core.Result) {
	d.config(r.Config)
	d.float(r.SearchE)
	d.cert(r.Cert)
	d.int(r.SearchEvaluations)
	d.int(r.Experiments)
	d.int(len(r.Pool))
	for _, p := range r.Pool {
		d.config(p.Config)
		d.float(p.Objective)
	}
}

func (d proofDigest) placement(r graph.Result) {
	for _, side := range r.Placement {
		d.int(side)
	}
	d.float(r.MakespanSec)
	d.cert(r.Cert)
	d.int(r.Evaluations)
	d.int(len(r.Pool))
	for _, p := range r.Pool {
		for _, side := range p.State {
			d.int(side)
		}
		d.float(p.Energy)
	}
}

// optimum folds only what a proof decides: the chosen configuration,
// its objective, Optimal, LowerBound and the pool. A tighter admissible
// bound changes how much of the tree a proof visits, never these.
func (d proofDigest) optimum(r core.Result) {
	d.config(r.Config)
	d.float(r.SearchE)
	if r.Cert == nil {
		d.int(-1)
	} else {
		if r.Cert.Optimal {
			d.int(1)
		} else {
			d.int(0)
		}
		d.float(r.Cert.LowerBound)
	}
	d.int(len(r.Pool))
	for _, p := range r.Pool {
		d.config(p.Config)
		d.float(p.Objective)
	}
}

// checkTruncated holds a budget-truncated run to the proven answer of
// its instance: its lower bound may not exceed the proven optimum, and
// when it still exhausted its tree and solved the same instance (same
// is false for a bounded run whose time bound came from a truncated
// time run), it must return the proven optimum.
func checkTruncated(t *testing.T, name string, res, proven core.Result, same bool) {
	t.Helper()
	switch c := res.Cert; {
	case c == nil:
		t.Errorf("%s: truncated run has no certificate", name)
	case !(c.LowerBound <= proven.SearchE):
		t.Errorf("%s: truncated run's lower bound %g above the proven optimum %g", name, c.LowerBound, proven.SearchE)
	case c.Optimal && same && (res.Config != proven.Config || res.SearchE != proven.SearchE):
		t.Errorf("%s: truncated run claims optimum %v (%g), proof found %v (%g)", name, res.Config, res.SearchE, proven.Config, proven.SearchE)
	}
}

// proofKnobs is the exact-strategy sweep of the proof golden: proofs
// with and without solution pools, and budget-truncated runs (each
// budget with and without a pool), which pin the frontier bound and the
// gap as well as the counts.
func proofKnobs() []struct {
	ex     strategy.Exact
	budget int
} {
	ks := []struct {
		ex     strategy.Exact
		budget int
	}{
		{strategy.Exact{Prove: true}, 0},
		{strategy.Exact{Prove: true, PoolSize: 4}, 0},
		{strategy.Exact{Prove: true, PoolSize: 8, PoolGap: 0.05}, 0},
	}
	for _, b := range []int{1, 7, 50, 300} {
		ks = append(ks,
			struct {
				ex     strategy.Exact
				budget int
			}{strategy.Exact{}, b},
			struct {
				ex     strategy.Exact
				budget int
			}{strategy.Exact{PoolSize: 4}, b})
	}
	return ks
}

// TestExactProofGolden pins every exact run on the shipped catalog bit
// for bit: the chosen configuration, its search objective, the whole
// certificate (Optimal, LowerBound and Gap bits, Explored, Pruned), the
// effort counts and the pool. Divisible runs sweep every platform x
// divisible preset x size {0.5, 1, 2}x x objective x exact knob;
// placement runs sweep every DAG preset x platform, proven with a pool
// and budget-truncated. Parallelism alternates between 1 and 2, which
// must not matter. Any change in bounds, visit order, pruning or
// measured values shows in the full digests.
//
// The optimum digests fold only the decided parts of the proven
// divisible runs (see proofDigest.optimum), and every truncated run is
// checked against its instance's proof (checkTruncated). They pin what
// no admissible bound may change: a bound change that moves the full
// digests must leave them alone.
func TestExactProofGolden(t *testing.T) {
	objectives := []struct {
		name string
		obj  core.Objective
	}{
		{"time", core.TimeObjective{}},
		{"energy", core.EnergyObjective{}},
		{"weighted-0.25", core.WeightedSumObjective{Alpha: 0.25}},
		{"weighted-0.75", core.WeightedSumObjective{Alpha: 0.75}},
		{"bounded", nil},
	}
	knobs := proofKnobs()
	golden := map[string]string{
		"paper":    "bfb0353d1e9d32cd",
		"gpu-like": "f8f3c132f06e2deb",
		"edge":     "0bbeb46c114f7d66",
		"dag":      "6daa226843f549b0",
	}
	optima := map[string]string{
		"paper":    "ac4ec4fa095b8da7",
		"gpu-like": "fa40d5d9dba86d94",
		"edge":     "3ace2265a6545087",
	}
	got := map[string]string{}
	runs := 0
	dag := proofDigest{fnv.New64a()}
	for _, spec := range Platforms() {
		d, od := proofDigest{fnv.New64a()}, proofDigest{fnv.New64a()}
		platform := spec.Platform()
		schema, err := spec.Schema()
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range Families() {
			for _, preset := range fam.Presets {
				if fam.IsDAG() {
					sim, err := spec.DAGSim(*preset.Graph)
					if err != nil {
						t.Fatal(err)
					}
					for i, ex := range []strategy.Exact{{Prove: true, PoolSize: 2}, {}} {
						res, err := graph.Tune(sim, ex, strategy.Options{Budget: 5, Parallelism: 1 + i})
						if err != nil {
							t.Fatalf("%s/%s: %v", spec.Name, preset.Name, err)
						}
						dag.placement(res)
					}
					continue
				}
				base := fam.workload(preset)
				for _, scale := range []float64{0.5, 1, 2} {
					w := base.Scaled(base.SizeMB * scale)
					for _, o := range objectives {
						// proven holds the instance's answers from the
						// first knob, a plain proof: the time run and
						// the bounded run for the bounded objective.
						var proven []core.Result
						for _, k := range knobs {
							runs++
							name := fmt.Sprintf("%s/%s/%s/%+v/%d", spec.Name, w.Name, o.name, k.ex, k.budget)
							inst := &core.Instance{Schema: schema, Measurer: core.NewMeasurer(platform, w)}
							opt := core.Options{Strategy: k.ex, Iterations: k.budget, Objective: o.obj, Parallelism: 1 + runs%2}
							var rs []core.Result
							if o.obj == nil {
								tr, er, err := core.RunWithTimeSlack(core.EM, inst, opt, 0.1)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								rs = []core.Result{tr, er}
							} else {
								res, err := core.Run(core.EM, inst, opt)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								rs = []core.Result{res}
							}
							if proven == nil {
								proven = rs
							}
							for i, res := range rs {
								d.result(res)
								if k.ex.Prove {
									od.optimum(res)
								} else {
									// A truncated time run's time bound is
									// at least the proven one, which only
									// lowers the bounded objective: the
									// proven optimum still caps the bound.
									// A bounded run on the time answer's
									// configuration either found it with
									// its own certificate or fell back to
									// it (RunWithTimeSlack) with none and
									// no pool, scored under the bounded
									// objective; a fallback has no proof to
									// check, and neither has an instance
									// whose proven run fell back.
									if i == 1 && res.Config == rs[0].Config {
										if res.Cert != nil && res.Cert == rs[0].Cert {
											t.Errorf("%s: bounded run carries the time run's certificate", name)
										}
										if res.Cert == nil {
											if len(res.Pool) != 0 || res.SearchE != res.MeasuredObjective {
												t.Errorf("%s: fallback keeps a pool of %d or a search value %g beside its objective %g", name, len(res.Pool), res.SearchE, res.MeasuredObjective)
											}
											continue
										}
									}
									if i == 1 && proven[1].Cert == nil {
										continue
									}
									same := i == 0 || (rs[0].Cert != nil && rs[0].Cert.Optimal)
									checkTruncated(t, fmt.Sprintf("%s[%d]", name, i), res, proven[i], same)
								}
							}
						}
					}
				}
			}
		}
		got[spec.Name] = fmt.Sprintf("%016x", d.h.Sum64())
		got[spec.Name+"-optimum"] = fmt.Sprintf("%016x", od.h.Sum64())
	}
	got["dag"] = fmt.Sprintf("%016x", dag.h.Sum64())
	for name, want := range golden {
		if got[name] != want {
			t.Errorf("%s proof digest = %s, want %s", name, got[name], want)
		}
	}
	for name, want := range optima {
		if got[name+"-optimum"] != want {
			t.Errorf("%s optimum digest = %s, want %s", name, got[name+"-optimum"], want)
		}
	}
	t.Logf("%d divisible runs", runs)
}
