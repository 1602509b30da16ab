package graph

import (
	"fmt"
	"math"
	"math/rand"

	"hetopt/internal/strategy"
)

// PlacementProblem exposes makespan minimization over a Sim on the
// strategy layer: one binary dimension per node (level 0 = host,
// 1 = device). It implements strategy.Spaced, so exhaustive
// enumeration and every coordinate-wise metaheuristic apply. Energy is
// pure and allocation-free; the problem is safe for concurrent
// evaluation.
type PlacementProblem struct {
	Sim *Sim
}

// NewPlacementProblem wraps a simulator.
func NewPlacementProblem(s *Sim) *PlacementProblem { return &PlacementProblem{Sim: s} }

// Dim implements strategy.Problem.
func (p *PlacementProblem) Dim() int { return p.Sim.Nodes() }

// Levels implements strategy.Spaced: every node has two placements.
func (p *PlacementProblem) Levels(int) int { return 2 }

// Initial implements strategy.Problem with a uniform random placement.
func (p *PlacementProblem) Initial(dst []int, rng *rand.Rand) {
	for i := range dst {
		dst[i] = rng.Intn(2)
	}
}

// Neighbor implements strategy.Problem by moving one random node to the
// other side.
func (p *PlacementProblem) Neighbor(dst, src []int, rng *rand.Rand) {
	copy(dst, src)
	i := rng.Intn(len(dst))
	dst[i] = 1 - (dst[i] & 1)
}

// Energy implements strategy.Problem: the placement's makespan.
func (p *PlacementProblem) Energy(state []int) (float64, error) {
	if len(state) != p.Sim.Nodes() {
		return 0, fmt.Errorf("graph: placement has %d entries, want %d", len(state), p.Sim.Nodes())
	}
	return p.Sim.Makespan(state), nil
}

// ChildBounds implements strategy.Bounded: out[v] is an admissible bound
// on the makespan of any placement agreeing with prefix[:fixed] that
// puts node `fixed` on side v — the pruning rule of the exact
// branch-and-bound strategy over placement spaces. It is the maximum of
// two classic DAG relaxations:
//
//   - Critical path: the longest dependency chain where a fixed node
//     costs its assigned side's execution time, an unfixed node costs
//     the cheaper of its two sides, and a transfer is charged only when
//     both endpoints are fixed to different sides (an unfixed endpoint
//     could always match its neighbor). No schedule can beat its own
//     dependency chain.
//   - Load: each side runs its nodes serially, so the makespan is at
//     least the busy time already committed to either side, and at
//     least half the total work under the cheapest split of the
//     unfixed remainder.
//
// Both relaxations are monotone (fixing one more node never lowers
// them) and exact when every node is fixed only in the relaxed sense —
// the bound stays below the true makespan, which is what admissibility
// requires. The simulator is noise-free, so no noise floor applies.
//
// The part both children share — the fixed prefix's critical path, its
// busy sums and the free suffix's cheapest work — is computed once;
// each child then prices node `fixed` and walks the free suffix. Every
// sum keeps the node order of a whole-graph pass, so the bounds are
// those of bounding each child on its own.
func (p *PlacementProblem) ChildBounds(prefix []int, fixed int, out []float64) {
	s := p.Sim
	var cp [MaxNodes]float64
	var busy [2]float64
	prefixBest := 0.0
	for i := 0; i < fixed; i++ {
		side := prefix[i] & 1
		busy[side] += s.nodeSec[side][i]
		ready := 0.0
		for k := s.inStart[i]; k < s.inStart[i+1]; k++ {
			e := s.edges[k]
			t := cp[e.from]
			if prefix[e.from]&1 != side {
				t += e.xferSec
			}
			if t > ready {
				ready = t
			}
		}
		cp[i] = ready + s.nodeSec[side][i]
		if cp[i] > prefixBest {
			prefixBest = cp[i]
		}
	}
	freeMin := 0.0
	for i := fixed + 1; i < s.n; i++ {
		freeMin += math.Min(s.nodeSec[SideHost][i], s.nodeSec[SideDevice][i])
	}
	for v := range out {
		side := v & 1
		own := s.nodeSec[side][fixed]
		busyH, busyD := busy[SideHost], busy[SideDevice]
		if side == SideHost {
			busyH += own
		} else {
			busyD += own
		}
		best := prefixBest
		for i := fixed; i < s.n; i++ {
			ready := 0.0
			for k := s.inStart[i]; k < s.inStart[i+1]; k++ {
				e := s.edges[k]
				t := cp[e.from]
				if i == fixed && prefix[e.from]&1 != side {
					t += e.xferSec
				}
				if t > ready {
					ready = t
				}
			}
			w := own
			if i > fixed {
				w = math.Min(s.nodeSec[SideHost][i], s.nodeSec[SideDevice][i])
			}
			cp[i] = ready + w
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
		out[v] = best
	}
}

// Result is a completed placement search with the baselines every
// report compares against.
type Result struct {
	// Placement assigns each node a side (SideHost/SideDevice).
	Placement []int
	// MakespanSec is the placement's simulated makespan.
	MakespanSec float64
	// HostOnlySec, DeviceOnlySec and RoundRobinSec are the baseline
	// makespans: everything on the host, everything on the device, and
	// naive alternation.
	HostOnlySec, DeviceOnlySec, RoundRobinSec float64
	// Evaluations is the number of placements priced by the search;
	// Worker and Workers mirror strategy.Result.
	Evaluations, Worker, Workers int
	// Cert and Pool carry the exact strategy's optimality certificate
	// and diverse placement pool (nil/empty for heuristic strategies).
	// Read them through Certificate()/PoolEntries().
	Cert *strategy.Certificate
	Pool []strategy.PoolEntry
}

// Certificate returns the search's optimality certificate; ok is false
// when the strategy could not certify anything.
func (r Result) Certificate() (strategy.Certificate, bool) {
	if r.Cert == nil {
		return strategy.Certificate{}, false
	}
	return *r.Cert, true
}

// PoolEntries returns the diverse placement pool, nil unless an exact
// run collected one. Entry states are placements (SideHost/SideDevice
// per node).
func (r Result) PoolEntries() []strategy.PoolEntry { return r.Pool }

// SpeedupVsHost is the host-only-over-best makespan ratio.
func (r Result) SpeedupVsHost() float64 {
	if r.MakespanSec <= 0 {
		return 0
	}
	return r.HostOnlySec / r.MakespanSec
}

// Tune searches for the makespan-minimizing placement with the given
// strategy (nil selects exhaustive enumeration — placement spaces are
// at most 2^MaxNodes but preset graphs stay small enough to enumerate).
// Results are deterministic: same sim, strategy, and options produce
// bit-identical placements at any parallelism.
func Tune(sim *Sim, strat strategy.Strategy, opt strategy.Options) (Result, error) {
	if strat == nil {
		strat = strategy.Exhaustive{}
	}
	res, err := strat.Minimize(NewPlacementProblem(sim), opt)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Placement:     res.Best,
		MakespanSec:   res.BestEnergy,
		HostOnlySec:   sim.HostOnlySec(),
		DeviceOnlySec: sim.DeviceOnlySec(),
		RoundRobinSec: sim.Makespan(sim.RoundRobinPlacement()),
		Evaluations:   res.Evaluations,
		Worker:        res.Worker,
		Workers:       res.Workers,
		Cert:          res.Cert,
		Pool:          res.Pool,
	}, nil
}
