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
// must not matter. The digests were captured before the bound interface
// and the measurement path were rewritten for speed, so any change in
// bounds, visit order, pruning or measured values shows here.
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
		"paper":    "c4b858959a5c5147",
		"gpu-like": "f42e0f41cddc001c",
		"edge":     "1450b9b8ffb4090b",
		"dag":      "6daa226843f549b0",
	}
	got := map[string]string{}
	runs := 0
	dag := proofDigest{fnv.New64a()}
	for _, spec := range Platforms() {
		d := proofDigest{fnv.New64a()}
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
						for _, k := range knobs {
							runs++
							inst := &core.Instance{Schema: schema, Measurer: core.NewMeasurer(platform, w)}
							opt := core.Options{Strategy: k.ex, Iterations: k.budget, Objective: o.obj, Parallelism: 1 + runs%2}
							if o.obj == nil {
								tr, er, err := core.RunWithTimeSlack(core.EM, inst, opt, 0.1)
								if err != nil {
									t.Fatalf("%s/%s/%s: %v", spec.Name, w.Name, o.name, err)
								}
								d.result(tr)
								d.result(er)
								continue
							}
							res, err := core.Run(core.EM, inst, opt)
							if err != nil {
								t.Fatalf("%s/%s/%s: %v", spec.Name, w.Name, o.name, err)
							}
							d.result(res)
						}
					}
				}
			}
		}
		got[spec.Name] = fmt.Sprintf("%016x", d.h.Sum64())
	}
	got["dag"] = fmt.Sprintf("%016x", dag.h.Sum64())
	for name, want := range golden {
		if got[name] != want {
			t.Errorf("%s proof digest = %s, want %s", name, got[name], want)
		}
	}
	t.Logf("%d divisible runs", runs)
}
