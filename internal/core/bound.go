package core

import (
	"math"

	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// This file derives admissible lower bounds on the objective of any
// configuration extending a partially-fixed one — the pruning oracle of
// the exact branch-and-bound strategy (strategy.Exact) over divisible
// schemas. The bound is a roofline relaxation of the analytic model
// (perf.Model): per-side compute time is bounded by the best streaming
// rate any allowed thread/affinity choice achieves, fixed setup and
// thread-spawn costs are dropped (they only add time), offload latency
// and the non-overlappable transfer residual are kept (every device
// share pays them), and multiplicative measurement noise is floored at
// its clamped minimum draw. Every simplification only lowers the value,
// so the bound never exceeds the measured objective of any completion —
// which is what lets the solver prune without losing the optimum.
//
// Bounds apply to the measurement path only. ML predictions (EML/SAML)
// are regression outputs with no floor: a tree can predict a time below
// any physical bound, so pruning on the roofline could discard the
// predicted optimum. Run therefore attaches bounds only when the method
// measures.

// noiseFloor is the smallest multiplicative noise factor perf.Model can
// draw for a relative std sigma: z is clamped to [-3, 3] and the factor
// to >= 0.01.
func noiseFloor(sigma float64) float64 {
	return math.Max(0.01, 1-3*sigma)
}

// rooflineBounder precomputes, per schema level, everything LowerBound
// needs so the per-node cost is a handful of table scans and a loop over
// the allowed fractions — pure, allocation-free and concurrent-safe.
type rooflineBounder struct {
	obj Objective

	// hostRate[ti][ai] and devRate[ti][ai] are modeled streaming rates in
	// MB/s for the schema's i-th thread and affinity values.
	hostRate, devRate [][]float64
	// hostFloor[ai] is the per-affinity host noise floor (AffinityNone
	// draws wider noise); devFloor and the power floors are uniform.
	hostFloor           []float64
	devFloor            float64
	hostPowerFloor      float64
	devicePowerFloor    float64
	hostIdleW, devIdleW float64

	// hostMB[fi] and devMB[fi] are the per-side shares of the workload at
	// the schema's i-th fraction value; workSec terms use complexity.
	hostMB, devMB []float64
	cx            float64
	offloadSec    float64
	pcieRateMBs   float64
	residual      float64
}

// newRooflineBounder builds the pruning oracle for a schema evaluated by
// measurement on the platform. It returns nil when no admissible bound
// is available: an objective outside the built-in four, or a model that
// rejects one of the schema's thread/affinity combinations.
func newRooflineBounder(schema *space.Schema, platform *offload.Platform, w offload.Workload, obj Objective) *rooflineBounder {
	if schema == nil || platform == nil {
		return nil
	}
	switch obj.(type) {
	case nil, TimeObjective, EnergyObjective, WeightedSumObjective, TimeBoundedObjective:
	default:
		return nil
	}
	m := platform.Model()
	if m == nil {
		return nil
	}
	traits := w.Traits()
	b := &rooflineBounder{
		obj:              obj,
		devFloor:         noiseFloor(m.Cal.NoiseStdDevice),
		hostPowerFloor:   noiseFloor(m.Cal.NoiseStdHostPower),
		devicePowerFloor: noiseFloor(m.Cal.NoiseStdDevicePower),
		hostIdleW:        m.Cal.HostIdleW,
		devIdleW:         m.Cal.DeviceIdleW,
		cx:               traits.Complexity,
		offloadSec:       m.Cal.OffloadLatencySec,
		pcieRateMBs:      m.Cal.PCIeRateMBs,
		residual:         m.Cal.TransferResidual,
	}
	if b.cx <= 0 {
		b.cx = 1
	}
	hostThreads := schema.HostThreadValues()
	hostAff := schema.HostAffinityValues()
	devThreads := schema.DeviceThreadValues()
	devAff := schema.DeviceAffinityValues()
	if len(hostThreads) == 0 || len(hostAff) == 0 || len(devThreads) == 0 || len(devAff) == 0 {
		return nil
	}
	b.hostRate = make([][]float64, len(hostThreads))
	for ti, threads := range hostThreads {
		b.hostRate[ti] = make([]float64, len(hostAff))
		for ai, aff := range hostAff {
			r, err := m.HostThroughputFor(threads, aff, traits)
			if err != nil || !(r > 0) {
				return nil
			}
			b.hostRate[ti][ai] = r
		}
	}
	b.devRate = make([][]float64, len(devThreads))
	for ti, threads := range devThreads {
		b.devRate[ti] = make([]float64, len(devAff))
		for ai, aff := range devAff {
			r, err := m.DeviceThroughputFor(threads, aff, traits)
			if err != nil || !(r > 0) {
				return nil
			}
			b.devRate[ti][ai] = r
		}
	}
	b.hostFloor = make([]float64, len(hostAff))
	for ai, aff := range hostAff {
		sigma := m.Cal.NoiseStdHost
		if aff == machine.AffinityNone {
			sigma *= m.Cal.NoiseNoneFactor
		}
		b.hostFloor[ai] = noiseFloor(sigma)
	}
	fracs := schema.FractionValues()
	b.hostMB = make([]float64, len(fracs))
	b.devMB = make([]float64, len(fracs))
	for fi, f := range fracs {
		b.hostMB[fi] = w.SizeMB * f / 100
		b.devMB[fi] = w.SizeMB - b.hostMB[fi]
	}
	return b
}

// allowed returns the index range [lo, hi) dimension d may still take
// under prefix[:fixed]: the single fixed value, or every level.
func allowed(prefix []int, fixed, d, levels int) (int, int) {
	if d < fixed {
		return prefix[d], prefix[d] + 1
	}
	return 0, levels
}

// LowerBound implements strategy.Bounded (via the search problem wrapper):
// an admissible bound on the objective of any configuration whose first
// `fixed` schema dimensions match prefix. Fixing one more dimension only
// shrinks the maximized rate sets and the minimized fraction set, so the
// bound is monotone along every tree path, as the solver requires.
func (b *rooflineBounder) LowerBound(prefix []int, fixed int) float64 {
	// Best achievable rates and lowest noise floors over the still-allowed
	// thread/affinity choices (dims 0-3; see space.Param* ordering).
	htLo, htHi := allowed(prefix, fixed, space.ParamHostThreads, len(b.hostRate))
	haLo, haHi := allowed(prefix, fixed, space.ParamHostAffinity, len(b.hostFloor))
	dtLo, dtHi := allowed(prefix, fixed, space.ParamDeviceThreads, len(b.devRate))
	daLo, daHi := allowed(prefix, fixed, space.ParamDeviceAffinity, len(b.devRate[0]))
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
	fLo, fHi := allowed(prefix, fixed, space.ParamHostFraction, len(b.hostMB))
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
		lbT := math.Max(tH, tD)
		// Every engaged side draws at least idle power for the whole
		// makespan, and the makespan is at least lbT.
		if hostMB > 0 {
			lbE += b.hostIdleW * b.hostPowerFloor * lbT
		}
		if devMB > 0 {
			lbE += b.devIdleW * b.devicePowerFloor * lbT
		}
		if v := b.objectiveBound(lbT, lbE); v < best {
			best = v
		}
	}
	return best
}

// objectiveBound composes per-fraction time and energy bounds under the
// run's objective. All four built-in objectives are monotone in both
// arguments, so feeding them lower bounds yields a lower bound.
func (b *rooflineBounder) objectiveBound(lbT, lbE float64) float64 {
	switch o := b.obj.(type) {
	case EnergyObjective:
		return lbE
	case WeightedSumObjective:
		scale := o.PowerScaleW
		if scale <= 0 {
			scale = DefaultPowerScaleW
		}
		return o.Alpha*lbT + (1-o.Alpha)*lbE/scale
	case TimeBoundedObjective:
		v := lbE
		if lbT > o.TimeBoundSec {
			penalty := o.PenaltyW
			if penalty <= 0 {
				penalty = DefaultBoundPenaltyW
			}
			v += penalty * (lbT - o.TimeBoundSec)
		}
		return v
	default: // nil or TimeObjective
		return lbT
	}
}

// boundedSearchProblem pairs the search-space adapter with the roofline
// pruning oracle. It is a distinct type (rather than an optional field
// on searchProblem) so that only measurement-path problems advertise
// LowerBound: the strategy layer's memo wrapper and the exact solver
// detect bounds by method set.
type boundedSearchProblem struct {
	*searchProblem
	b *rooflineBounder
}

// LowerBound implements strategy.Bounded.
func (p *boundedSearchProblem) LowerBound(prefix []int, fixed int) float64 {
	return p.b.LowerBound(prefix, fixed)
}

// NewBoundedSearchProblem is NewSearchProblem plus the roofline pruning
// oracle when one is available: the measurement platform and workload
// derive admissible bounds for the exact strategy, falling back to the
// plain (bound-free, still exactly solvable by certified enumeration)
// adapter when the objective or model does not admit one. The evaluator
// must be measurement-backed — attaching roofline bounds to an ML
// predictor could prune the predicted optimum.
func NewBoundedSearchProblem(schema *space.Schema, eval Evaluator, obj Objective, mode space.NeighborMode, platform *offload.Platform, w offload.Workload) strategy.Spaced {
	if obj == nil {
		obj = TimeObjective{}
	}
	return withRooflineBound(newSearchProblem(schema, eval, obj, mode), platform, w)
}

// withRooflineBound attaches the roofline pruning oracle to p when its
// objective and the platform's model admit one, and returns p
// unchanged otherwise.
func withRooflineBound(p *searchProblem, platform *offload.Platform, w offload.Workload) strategy.Spaced {
	if b := newRooflineBounder(p.schema, platform, w, p.obj); b != nil {
		return &boundedSearchProblem{searchProblem: p, b: b}
	}
	return p
}
