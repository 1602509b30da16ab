package core

import (
	"math"
	"sync"

	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/perf"
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
// its clamped minimum draw. Energy is priced the same way: every engaged
// side draws idle power over the makespan, plus its dynamic power (active
// minus idle) while its own share runs, at least the side-time bound
// long. Every simplification only lowers the value,
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

// boundKind is the built-in objective a rooflineBounder composes its
// time and energy bounds under.
type boundKind uint8

const (
	boundTime boundKind = iota
	boundEnergy
	boundWeighted
	boundTimeBounded
)

// rooflineBounder precomputes, per schema level, everything ChildBounds
// needs — pure, allocation-free and concurrent-safe. Every child of
// every node takes the best rate, lowest noise floor and least dynamic
// energy over a set of levels that is a table entry, a whole row or the
// whole table, so the per-side time and energy bounds are built once per
// run as vectors over the fraction levels: bounding a node's children is
// then one scan per child — of two vectors for a time objective, of four
// for one that reads energy — with no call and no division outside the
// weighted objective's own.
type rooflineBounder struct {
	// kind is the objective's, and alpha and timeBoundSec its constants,
	// captured once so the scan composes the objective inline. Only a
	// kind that reads energy (any but boundTime) builds the
	// dynamic-energy vectors and composes energy bounds.
	kind                boundKind
	alpha, timeBoundSec float64
	// model and schema price the dynamic power of each thread/affinity
	// pair when the vectors are built.
	model  *perf.Model
	schema *space.Schema

	// hostRate[ti][ai] and devRate[ti][ai] are modeled streaming rates in
	// MB/s for the schema's i-th thread and affinity values. The rates,
	// hostFloor, hostMB and devMB are windows of one backing array.
	hostRate, devRate [][]float64
	// hostFloor[ai] is the per-affinity host noise floor (AffinityNone
	// draws wider noise); devFloor and the power floors are uniform.
	hostFloor           []float64
	devFloor            float64
	hostPowerFloor      float64
	devicePowerFloor    float64
	hostIdleW, devIdleW float64
	// hostIdleE and devIdleE are the idle watts times the power floor:
	// each engaged side's least energy per second of makespan.
	hostIdleE, devIdleE float64

	// hostMB[fi] and devMB[fi] are the per-side shares of the workload at
	// the schema's i-th fraction value; workSec terms use complexity.
	hostMB, devMB []float64
	cx            float64
	offloadSec    float64
	pcieRateMBs   float64
	residual      float64

	// Side-time bound vectors over the fraction levels, row-major (see
	// row), built once by buildVectors: hostSec and devSec per
	// (threads, affinity) pair; hostBest and devBest per thread level at
	// the best rate over its affinities (the host's at the lowest floor
	// over all of them); devTop is the devBest row of the fastest
	// device level. These and the dynamic-energy vectors below are
	// windows of one backing array.
	vectors                                    sync.Once
	hostSec, devSec, hostBest, devBest, devTop []float64
	// Dynamic-energy bound vectors in the same layout: hostDyn and devDyn
	// per pair are the power noise floor times the pair's dynamic watts
	// times its side-time bound; hostDynBest and devDynBest per thread
	// level are their pointwise minimum over its affinities, and
	// devDynAll the minimum over every device pair.
	hostDyn, devDyn, hostDynBest, devDynBest, devDynAll []float64
}

// newRooflineBounder builds the pruning oracle for a schema evaluated by
// measurement on the platform. It returns nil when no admissible bound
// is available: an objective outside the built-in four, or a model that
// rejects one of the schema's thread/affinity combinations.
func newRooflineBounder(schema *space.Schema, platform *offload.Platform, w offload.Workload, obj Objective) *rooflineBounder {
	if schema == nil || platform == nil {
		return nil
	}
	m := platform.Model()
	if m == nil {
		return nil
	}
	traits := w.Traits()
	cal := m.Constants()
	b := &rooflineBounder{
		model:            m,
		schema:           schema,
		devFloor:         noiseFloor(cal.NoiseStdDevice),
		hostPowerFloor:   noiseFloor(cal.NoiseStdHostPower),
		devicePowerFloor: noiseFloor(cal.NoiseStdDevicePower),
		hostIdleW:        cal.HostIdleW,
		devIdleW:         cal.DeviceIdleW,
		cx:               traits.Complexity,
		offloadSec:       cal.OffloadLatencySec,
		pcieRateMBs:      cal.PCIeRateMBs,
		residual:         cal.TransferResidual,
	}
	switch o := obj.(type) {
	case nil, TimeObjective:
		b.kind = boundTime
	case EnergyObjective:
		b.kind = boundEnergy
	case WeightedSumObjective:
		b.kind, b.alpha = boundWeighted, o.Alpha
	case TimeBoundedObjective:
		b.kind, b.timeBoundSec = boundTimeBounded, o.TimeBoundSec
	default:
		return nil
	}
	// Go evaluates idleW*floor*lbT as (idleW*floor)*lbT, so scaling lbT
	// by these products gives the same bits.
	b.hostIdleE = b.hostIdleW * b.hostPowerFloor
	b.devIdleE = b.devIdleW * b.devicePowerFloor
	if b.cx <= 0 {
		b.cx = 1
	}
	lv := schema.Values()
	hostThreads, hostAff := lv.HostThreads, lv.HostAffinities
	devThreads, devAff, fracs := lv.DeviceThreads, lv.DeviceAffinities, lv.Fractions
	if len(hostThreads) == 0 || len(hostAff) == 0 || len(devThreads) == 0 || len(devAff) == 0 {
		return nil
	}
	buf := make([]float64, len(hostThreads)*len(hostAff)+len(devThreads)*len(devAff)+len(hostAff)+2*len(fracs))
	rows := make([][]float64, len(hostThreads)+len(devThreads))
	b.hostRate, b.devRate = rows[:len(hostThreads)], rows[len(hostThreads):]
	for ti, threads := range hostThreads {
		b.hostRate[ti] = carve(&buf, len(hostAff))
		for ai, aff := range hostAff {
			r, err := m.HostThroughputFor(threads, aff, traits)
			if err != nil || !(r > 0) {
				return nil
			}
			b.hostRate[ti][ai] = r
		}
	}
	for ti, threads := range devThreads {
		b.devRate[ti] = carve(&buf, len(devAff))
		for ai, aff := range devAff {
			r, err := m.DeviceThroughputFor(threads, aff, traits)
			if err != nil || !(r > 0) {
				return nil
			}
			b.devRate[ti][ai] = r
		}
	}
	b.hostFloor = carve(&buf, len(hostAff))
	for ai, aff := range hostAff {
		sigma := cal.NoiseStdHost
		if aff == machine.AffinityNone {
			sigma *= cal.NoiseNoneFactor
		}
		b.hostFloor[ai] = noiseFloor(sigma)
	}
	b.hostMB, b.devMB = carve(&buf, len(fracs)), carve(&buf, len(fracs))
	for fi, f := range fracs {
		b.hostMB[fi] = w.SizeMB * f / 100
		b.devMB[fi] = w.SizeMB - b.hostMB[fi]
	}
	return b
}

// carve cuts the next n values off *buf: a window capped at its own
// length, so appending to it never reaches the next one.
func carve(buf *[]float64, n int) []float64 {
	v := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return v
}

// buildVectors fills the side-time vectors, and the dynamic-energy ones
// when the objective reads energy. The exact solver is their only
// reader, so they are built on its first ChildBounds call, not for every
// run a bounder is attached to.
func (b *rooflineBounder) buildVectors() {
	nf, nhAff, ndAff := len(b.hostMB), len(b.hostFloor), len(b.devRate[0])
	hostSecN, hostBestN := len(b.hostRate)*nhAff*nf, len(b.hostRate)*nf
	devSecN, devBestN := len(b.devRate)*ndAff*nf, len(b.devRate)*nf
	n := hostSecN + hostBestN + devSecN + devBestN
	if b.kind != boundTime {
		// The dynamic-energy vectors mirror the side-time ones, plus
		// devDynAll.
		n += n + nf
	}
	// Each vector is filled by appending to an empty window of buf.
	buf := make([]float64, n)
	b.hostSec, b.hostBest = carve(&buf, hostSecN)[:0], carve(&buf, hostBestN)[:0]
	b.devSec, b.devBest = carve(&buf, devSecN)[:0], carve(&buf, devBestN)[:0]
	floor := math.Inf(1)
	for _, f := range b.hostFloor {
		floor = min(floor, f)
	}
	for _, rates := range b.hostRate {
		best := 0.0
		for ai, r := range rates {
			best = max(best, r)
			b.hostSec = b.appendSec(b.hostSec, func(fi int) float64 { return b.hostTime(fi, b.hostFloor[ai], r) })
		}
		b.hostBest = b.appendSec(b.hostBest, func(fi int) float64 { return b.hostTime(fi, floor, best) })
	}
	top, topRate := 0, 0.0
	for ti, rates := range b.devRate {
		best := 0.0
		for _, r := range rates {
			best = max(best, r)
			b.devSec = b.appendSec(b.devSec, func(fi int) float64 { return b.devTime(fi, r) })
		}
		b.devBest = b.appendSec(b.devBest, func(fi int) float64 { return b.devTime(fi, best) })
		if best > topRate {
			top, topRate = ti, best
		}
	}
	b.devTop = b.row(b.devBest, top)
	if b.kind == boundTime {
		return
	}
	lv := b.schema.Values()
	b.hostDyn, b.hostDynBest = b.dynamicVectors(&buf, b.hostSec, lv.HostThreads, lv.HostAffinities,
		b.model.HostActivePowerW, b.hostPowerFloor, b.hostIdleW)
	b.devDyn, b.devDynBest = b.dynamicVectors(&buf, b.devSec, lv.DeviceThreads, lv.DeviceAffinities,
		b.model.DeviceActivePowerW, b.devicePowerFloor, b.devIdleW)
	b.devDynAll = b.appendMin(carve(&buf, nf)[:0], b.devDynBest)
}

// dynamicVectors prices one side's dynamic energy from its side-time
// vectors sec: per (threads, affinity) pair, the power noise floor times
// the pair's dynamic watts times its side-time vector, and per thread
// level the pointwise minimum over its affinities. Both are filled into
// windows carved off *buf.
func (b *rooflineBounder) dynamicVectors(buf *[]float64, sec []float64, threads []int, affs []machine.Affinity,
	power func(int, machine.Affinity) (float64, error), floor, idleW float64) (dyn, best []float64) {
	nf := len(b.hostMB)
	dyn = carve(buf, len(sec))[:0]
	best = carve(buf, len(threads)*nf)[:0]
	for ti, th := range threads {
		for ai, aff := range affs {
			p, err := power(th, aff)
			w := floor * dynamicW(p, err, idleW)
			for _, t := range b.row(sec, ti*len(affs)+ai) {
				dyn = append(dyn, w*t)
			}
		}
		best = b.appendMin(best, dyn[ti*len(affs)*nf:])
	}
	return dyn, best
}

// dynamicW is the part of an active power draw p above idle: what a side
// draws only while its own share runs. A pair the model prices no power
// for (err set) gets 0, which drops its term and only lowers the bound.
func dynamicW(p float64, err error, idleW float64) float64 {
	if err != nil {
		return 0
	}
	return max(0, p-idleW)
}

// appendMin appends to vec the pointwise minimum of the vectors laid out
// back to back in rows.
func (b *rooflineBounder) appendMin(vec, rows []float64) []float64 {
	nf := len(b.hostMB)
	vec = append(vec, rows[:nf]...)
	lo := vec[len(vec)-nf:]
	for r := nf; r < len(rows); r += nf {
		for fi, v := range rows[r : r+nf] {
			lo[fi] = min(lo[fi], v)
		}
	}
	return vec
}

// appendSec appends one side-time vector, sec(fi) at every fraction
// level, to vec.
func (b *rooflineBounder) appendSec(vec []float64, sec func(fi int) float64) []float64 {
	for fi := range b.hostMB {
		vec = append(vec, sec(fi))
	}
	return vec
}

// row returns the i-th vector of vec, nil when vec was not built.
func (b *rooflineBounder) row(vec []float64, i int) []float64 {
	if vec == nil {
		return nil
	}
	nf := len(b.hostMB)
	return vec[i*nf : (i+1)*nf]
}

// hostTime bounds the host share's time at fraction level fi under the
// best reachable rate and the lowest reachable noise floor.
func (b *rooflineBounder) hostTime(fi int, floor, rate float64) float64 {
	if hostMB := b.hostMB[fi]; hostMB > 0 {
		return floor * hostMB * b.cx / rate
	}
	return 0
}

// devTime bounds the device share's time at fraction level fi under the
// best reachable rate: offload latency plus the slower of compute and
// transfer plus the transfer's non-overlapped residual.
func (b *rooflineBounder) devTime(fi int, rate float64) float64 {
	if devMB := b.devMB[fi]; devMB > 0 {
		transfer := devMB / b.pcieRateMBs
		return b.devFloor * (b.offloadSec + math.Max(devMB*b.cx/rate, transfer) + b.residual*transfer)
	}
	return 0
}

// energyBound composes the makespan bound lbT and the dynamic-energy
// bounds eH, eD at fraction level fi into the bound of an objective
// that reads energy. Every built-in objective is monotone in time and
// energy, so composing lower bounds yields a lower bound; each case is
// its objective's Value, operation for operation.
func (b *rooflineBounder) energyBound(fi int, lbT float64, eH, eD []float64) float64 {
	// Every engaged side draws at least idle power for the whole
	// makespan, and the makespan is at least lbT; on top of that it
	// draws its dynamic power while busy, which eH and eD bound.
	var lbE float64
	if b.hostMB[fi] > 0 {
		lbE += b.hostIdleE*lbT + eH[fi]
	}
	if b.devMB[fi] > 0 {
		lbE += b.devIdleE*lbT + eD[fi]
	}
	switch b.kind {
	case boundWeighted:
		return b.alpha*lbT + (1-b.alpha)*lbE/DefaultPowerScaleW
	case boundTimeBounded:
		if lbT > b.timeBoundSec {
			lbE += DefaultBoundPenaltyW * (lbT - b.timeBoundSec)
		}
	}
	return lbE
}

// bestFraction is the lowest fraction-level bound over the side-time
// vectors tH, tD and the dynamic-energy vectors eH, eD (nil, and unread,
// when the objective is time).
func (b *rooflineBounder) bestFraction(tH, tD, eH, eD []float64) float64 {
	best := math.Inf(1)
	tD = tD[:len(tH)]
	if b.kind == boundTime {
		for fi, h := range tH {
			if v := max(h, tD[fi]); v < best {
				best = v
			}
		}
		return best
	}
	for fi, h := range tH {
		if v := b.energyBound(fi, max(h, tD[fi]), eH, eD); v < best {
			best = v
		}
	}
	return best
}

// ChildBounds implements strategy.Bounded (via the search problem
// wrapper): out[v] is an admissible bound on the objective of any
// configuration whose first `fixed` schema dimensions match prefix and
// whose dimension `fixed` takes level v — the best rates, lowest noise
// floors and least dynamic energy over the still-allowed thread/affinity
// levels (dims 0-3; see space.Param* ordering), at the best fraction.
// Fixing one more dimension only shrinks the maximized rate sets and the
// minimized energy and fraction sets, so the bounds are monotone along
// every tree path.
func (b *rooflineBounder) ChildBounds(prefix []int, fixed int, out []float64) {
	b.vectors.Do(b.buildVectors)
	nha, nda := len(b.hostFloor), len(b.devRate[0])
	var tH, eH []float64 // the fixed host pair's vectors, once both host levels are fixed
	if fixed > space.ParamHostAffinity {
		pair := prefix[space.ParamHostThreads]*nha + prefix[space.ParamHostAffinity]
		tH, eH = b.row(b.hostSec, pair), b.row(b.hostDyn, pair)
	}
	switch fixed {
	case space.ParamHostThreads:
		for v := range out {
			out[v] = b.bestFraction(b.row(b.hostBest, v), b.devTop, b.row(b.hostDynBest, v), b.devDynAll)
		}
	case space.ParamHostAffinity:
		for v := range out {
			pair := prefix[space.ParamHostThreads]*nha + v
			out[v] = b.bestFraction(b.row(b.hostSec, pair), b.devTop, b.row(b.hostDyn, pair), b.devDynAll)
		}
	case space.ParamDeviceThreads:
		for v := range out {
			out[v] = b.bestFraction(tH, b.row(b.devBest, v), eH, b.row(b.devDynBest, v))
		}
	case space.ParamDeviceAffinity:
		dt := prefix[space.ParamDeviceThreads]
		for v := range out {
			out[v] = b.bestFraction(tH, b.row(b.devSec, dt*nda+v), eH, b.row(b.devDyn, dt*nda+v))
		}
	default: // space.ParamHostFraction
		pair := prefix[space.ParamDeviceThreads]*nda + prefix[space.ParamDeviceAffinity]
		tD, eD := b.row(b.devSec, pair), b.row(b.devDyn, pair)
		for fi := range out {
			out[fi] = max(tH[fi], tD[fi])
			if b.kind != boundTime {
				out[fi] = b.energyBound(fi, out[fi], eH, eD)
			}
		}
	}
}

// boundedSearchProblem pairs the search-space adapter with the roofline
// pruning oracle. It is a distinct type (rather than an optional field
// on searchProblem) so that only measurement-path problems advertise
// ChildBounds: Portfolio's memo wrapper and the exact solver detect
// bounds by method set.
type boundedSearchProblem struct {
	*searchProblem
	b *rooflineBounder
}

// ChildBounds implements strategy.Bounded.
func (p *boundedSearchProblem) ChildBounds(prefix []int, fixed int, out []float64) {
	p.b.ChildBounds(prefix, fixed, out)
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
