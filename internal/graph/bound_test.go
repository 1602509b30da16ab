package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hetopt/internal/machine"
	"hetopt/internal/perf"
	"hetopt/internal/strategy"
)

// referenceLowerBound is the placement bound of one node, computed the
// way PlacementProblem did before it bounded a node's children in one
// call: critical path and load relaxations over prefix[:fixed] rebuilt
// from scratch. ChildBounds must agree with it bit for bit.
func referenceLowerBound(s *Sim, prefix []int, fixed int) float64 {
	n := s.n
	if fixed > n {
		fixed = n
	}
	var cp [MaxNodes]float64
	var w [MaxNodes]float64
	busyH, busyD, freeMin := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		h, d := s.nodeSec[SideHost][i], s.nodeSec[SideDevice][i]
		if i < fixed {
			side := prefix[i] & 1
			w[i] = s.nodeSec[side][i]
			if side == SideHost {
				busyH += w[i]
			} else {
				busyD += w[i]
			}
		} else {
			w[i] = math.Min(h, d)
			freeMin += w[i]
		}
	}
	best := 0.0
	for i := 0; i < n; i++ {
		ready := 0.0
		for k := s.inStart[i]; k < s.inStart[i+1]; k++ {
			e := s.edges[k]
			t := cp[e.from]
			if e.from < fixed && i < fixed && prefix[e.from]&1 != prefix[i]&1 {
				t += e.xferSec
			}
			if t > ready {
				ready = t
			}
		}
		cp[i] = ready + w[i]
		if cp[i] > best {
			best = cp[i]
		}
	}
	if load := (busyH + busyD + freeMin) / 2; load > best {
		best = load
	}
	if busyH > best {
		best = busyH
	}
	if busyD > best {
		best = busyD
	}
	return best
}

// genWorkload draws a seeded DAG of 1 to maxNodes nodes, in one of two
// shapes: layered (every edge joins adjacent layers, like an operator
// pipeline) or random (any forward edge, like a solver's dependency
// graph). Work and transfer volumes span two orders of magnitude so
// both sides and both relaxations get to win.
func genWorkload(rng *rand.Rand, maxNodes int) Workload {
	n := 1 + rng.Intn(maxNodes)
	w := Workload{Name: fmt.Sprintf("gen-%d", n)}
	for i := 0; i < n; i++ {
		w.Nodes = append(w.Nodes, Node{Name: fmt.Sprintf("n%d", i), WorkMB: 4 * math.Pow(100, rng.Float64())})
	}
	xfer := func() float64 { return math.Pow(200, rng.Float64()) - 1 }
	if rng.Intn(2) == 0 {
		// Layered: consecutive runs of nodes form layers.
		var layers [][]int
		for i := 0; i < n; {
			k := min(n-i, 1+rng.Intn(4))
			layer := make([]int, k)
			for j := range layer {
				layer[j] = i + j
			}
			layers = append(layers, layer)
			i += k
		}
		for l := 1; l < len(layers); l++ {
			for _, to := range layers[l] {
				for _, from := range layers[l-1] {
					if rng.Float64() < 0.6 {
						w.Edges = append(w.Edges, Edge{From: from, To: to, TransferMB: xfer()})
					}
				}
			}
		}
	} else {
		p := rng.Float64() * 0.5
		for to := 1; to < n; to++ {
			for from := 0; from < to; from++ {
				if rng.Float64() < p {
					w.Edges = append(w.Edges, Edge{From: from, To: to, TransferMB: xfer()})
				}
			}
		}
	}
	return w
}

// genSim prices a generated DAG on the paper platform under a perturbed
// calibration and link, so side speed ratios and transfer costs vary
// from instance to instance.
func genSim(t *testing.T, rng *rand.Rand, maxNodes int) *Sim {
	t.Helper()
	jitter := func() float64 { return math.Pow(4, 2*rng.Float64()-1) }
	cal := perf.DefaultCalibration()
	cal.HostCoreRateMBs *= jitter()
	cal.DeviceCoreRateMBs *= jitter()
	cal.HostCoreScalingExp = 0.85 + 0.15*rng.Float64()
	m := perf.NewModel(machine.XeonE5Host(), machine.XeonPhi7120P(), cal)
	w := genWorkload(rng, maxNodes)
	s, err := NewSim(w, m,
		SideConfig{Threads: 48, Affinity: machine.AffinityCompact},
		SideConfig{Threads: 240, Affinity: machine.AffinityBalanced},
		Link{BandwidthMBs: 6500 * jitter(), LatencySec: 0.0025 * jitter()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChildBoundsMatchReference: on every node of generated DAGs up to
// MaxNodes nodes, ChildBounds equals the per-node reference bit for
// bit, and never writes the prefix.
func TestChildBoundsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for inst := 0; inst < 60; inst++ {
		s := genSim(t, rng, MaxNodes)
		p := NewPlacementProblem(s)
		n := s.Nodes()
		prefix := make([]int, n)
		var out [2]float64
		// A random prefix per depth probes deep trees without walking
		// all 2^32 of their nodes.
		for trial := 0; trial < 40; trial++ {
			for i := range prefix {
				prefix[i] = rng.Intn(2)
			}
			for fixed := 0; fixed < n; fixed++ {
				saved := append([]int(nil), prefix...)
				p.ChildBounds(prefix, fixed, out[:])
				for v := range out {
					node := append(append([]int(nil), prefix[:fixed]...), v)
					want := referenceLowerBound(s, node, fixed+1)
					if math.Float64bits(out[v]) != math.Float64bits(want) {
						t.Fatalf("instance %d (%d nodes): child %d of %v: ChildBounds %g, reference %g", inst, n, v, prefix[:fixed], out[v], want)
					}
				}
				for i := range prefix {
					if prefix[i] != saved[i] {
						t.Fatalf("instance %d: ChildBounds wrote the prefix", inst)
					}
				}
			}
		}
	}
}

// TestChildBoundsAdmissibleByBruteForce is the admissibility oracle on
// generated DAGs of at most 16 nodes, layered and random, under
// perturbed calibrations: on every node of the full placement tree each
// child bound is at most the makespan of every completion of that child
// (its subtree's brute-force minimum), not below its parent's bound
// beyond rounding, and equal to the per-node reference. Exact proofs on
// the same instances match exhaustive enumeration and certify the
// optimum.
func TestChildBoundsAdmissibleByBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for inst := 0; inst < 40; inst++ {
		s := genSim(t, rng, 16)
		p := NewPlacementProblem(s)
		n := s.Nodes()
		state := make([]int, n)
		// walk returns the minimum makespan below state[:d], whose bound
		// is parent.
		var walk func(d int, parent float64) float64
		walk = func(d int, parent float64) float64 {
			if d == n {
				return s.Makespan(state)
			}
			var out [2]float64
			p.ChildBounds(state, d, out[:])
			best := math.Inf(1)
			for v, lb := range out {
				if want := referenceLowerBound(s, append(append([]int(nil), state[:d]...), v), d+1); math.Float64bits(lb) != math.Float64bits(want) {
					t.Fatalf("instance %d: child %d of %v: ChildBounds %g, reference %g", inst, v, state[:d], lb, want)
				}
				// The load relaxation sums the committed and the free
				// work in node order, so fixing a node regroups the sum
				// and may round it down by an ulp or so: monotone up to
				// rounding, which costs the solver nothing (pruning
				// needs only admissibility, checked exactly below).
				if lb < parent*(1-1e-12) {
					t.Fatalf("instance %d: child %d of %v: bound %g below its parent's %g", inst, v, state[:d], lb, parent)
				}
				state[d] = v
				sub := walk(d+1, lb)
				if lb > sub {
					t.Fatalf("instance %d: child %d of %v: bound %g above its best completion %g", inst, v, state[:d], lb, sub)
				}
				best = min(best, sub)
			}
			state[d] = 0
			return best
		}
		optimum := walk(0, referenceLowerBound(s, state, 0))

		ex, err := Tune(s, strategy.Exact{Prove: true}, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		en, err := Tune(s, strategy.Exhaustive{}, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, ok := ex.Certificate()
		if !ok || !c.Optimal || c.LowerBound != ex.MakespanSec || c.Explored+c.Pruned != 1<<n {
			t.Fatalf("instance %d: uncertified proof %+v", inst, c)
		}
		if ex.MakespanSec != optimum || ex.MakespanSec != en.MakespanSec || fmt.Sprint(ex.Placement) != fmt.Sprint(en.Placement) {
			t.Fatalf("instance %d: exact %v (%g), exhaustive %v (%g), brute force %g",
				inst, ex.Placement, ex.MakespanSec, en.Placement, en.MakespanSec, optimum)
		}
	}
}
