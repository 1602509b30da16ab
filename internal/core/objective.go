package core

import (
	"fmt"
	"math"
	"strings"

	"hetopt/internal/offload"
)

// Objective maps one evaluated configuration — its aggregate execution
// time in seconds (max over processing units) and its consumed energy in
// joules (sum over engaged units) — to the scalar the search minimizes.
// The paper optimizes time only (Equation 2); the bi-objective extension
// follows Khaleghzadeh et al. in treating the workload distribution as
// the lever trading performance against energy.
//
// Implementations must be pure functions of their two arguments: the
// concurrent search engine assumes that equal measurements score equally
// regardless of goroutine scheduling, which is what keeps results
// bit-identical at every parallelism level.
type Objective interface {
	// Name identifies the objective in reports and results.
	Name() string
	// Value scores an evaluation; lower is better.
	Value(timeSec, energyJ float64) float64
}

// TimeObjective is the paper's objective: minimize the makespan
// E = max(T_host, T_device). It is the default everywhere.
type TimeObjective struct{}

// Name implements Objective.
func (TimeObjective) Name() string { return "time" }

// Value implements Objective.
func (TimeObjective) Value(timeSec, energyJ float64) float64 { return timeSec }

// EnergyObjective minimizes the total joules consumed across engaged
// processing units, regardless of how long the run takes.
type EnergyObjective struct{}

// Name implements Objective.
func (EnergyObjective) Name() string { return "energy" }

// Value implements Objective.
func (EnergyObjective) Value(timeSec, energyJ float64) float64 { return energyJ }

// DefaultPowerScaleW converts joules into time-equivalent seconds inside
// WeightedSumObjective: 1 second trades against DefaultPowerScaleW
// joules. The default is deliberately below the platform's typical draw
// (~200-300 W) so that alpha = 0.5 visibly pulls the distribution toward
// the energy-efficient unit instead of rounding to the time optimum.
const DefaultPowerScaleW = 50.0

// WeightedSumObjective is the scalarized bi-objective
//
//	alpha * T + (1-alpha) * E / DefaultPowerScaleW
//
// with T in seconds and E in joules. Alpha = 1 reduces to TimeObjective,
// alpha = 0 to a rescaled EnergyObjective.
type WeightedSumObjective struct {
	// Alpha is the time weight in [0,1].
	Alpha float64
}

// Name implements Objective.
func (o WeightedSumObjective) Name() string {
	return fmt.Sprintf("weighted(alpha=%g)", o.Alpha)
}

// Value implements Objective.
func (o WeightedSumObjective) Value(timeSec, energyJ float64) float64 {
	return o.Alpha*timeSec + (1-o.Alpha)*energyJ/DefaultPowerScaleW
}

// DefaultBoundPenaltyW is the penalty slope of TimeBoundedObjective:
// joule-equivalents charged per second of bound violation. It is large
// enough that any feasible configuration beats every infeasible one, yet
// finite so simulated annealing still feels a gradient back into the
// feasible region.
const DefaultBoundPenaltyW = 1e6

// TimeBoundedObjective is the constrained mode: minimize energy subject
// to the makespan staying within TimeBoundSec. Violations are penalized
// linearly rather than scored +Inf so annealing chains that wander out of
// the feasible region are pulled back instead of random-walking, at
// DefaultBoundPenaltyW per second over the bound. Construct the bound
// from a time-optimal run, e.g. via RunWithTimeSlack.
type TimeBoundedObjective struct {
	// TimeBoundSec is the makespan budget in seconds.
	TimeBoundSec float64
}

// Name implements Objective.
func (o TimeBoundedObjective) Name() string {
	return fmt.Sprintf("bounded(T<=%.4gs)", o.TimeBoundSec)
}

// Value implements Objective.
func (o TimeBoundedObjective) Value(timeSec, energyJ float64) float64 {
	v := energyJ
	if timeSec > o.TimeBoundSec {
		v += DefaultBoundPenaltyW * (timeSec - o.TimeBoundSec)
	}
	return v
}

// ParseObjective converts a CLI-style objective name ("time", "energy",
// "weighted") into an Objective; alpha is only consulted by "weighted".
// The constrained mode is not parseable here because its time bound comes
// from a preceding time-optimal run — see RunWithTimeSlack.
func ParseObjective(name string, alpha float64) (Objective, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "time":
		return TimeObjective{}, nil
	case "energy":
		return EnergyObjective{}, nil
	case "weighted":
		if alpha < 0 || alpha > 1 {
			return nil, fmt.Errorf("core: weighted objective needs alpha in [0,1], got %g", alpha)
		}
		return WeightedSumObjective{Alpha: alpha}, nil
	default:
		return nil, fmt.Errorf("core: unknown objective %q (want time, energy or weighted)", name)
	}
}

// objectiveValue scores a measurement under obj, defaulting to the
// paper's time objective when obj is nil.
func objectiveValue(obj Objective, m offload.Measurement) float64 {
	if obj == nil {
		return m.E()
	}
	return obj.Value(m.E(), m.Joules())
}

// RunWithTimeSlack is the constrained bi-objective pipeline: it first
// runs method m under the time objective to establish the best achievable
// makespan T_best, then re-runs it minimizing energy subject to
// T <= (1+slack)*T_best. It returns both results; the first is the
// time-optimal reference, the second the energy-minimal configuration
// within the slack. slack must be non-negative.
func RunWithTimeSlack(m Method, inst *Instance, opt Options, slack float64) (timeRes, energyRes Result, err error) {
	if slack < 0 || math.IsNaN(slack) {
		return Result{}, Result{}, fmt.Errorf("core: time slack %g must be non-negative", slack)
	}
	timeOpt := opt
	timeOpt.Objective = TimeObjective{}
	timeRes, err = Run(m, inst, timeOpt)
	if err != nil {
		return Result{}, Result{}, err
	}
	bound := (1 + slack) * timeRes.MeasuredE()
	bobj := TimeBoundedObjective{TimeBoundSec: bound}
	boundOpt := opt
	boundOpt.Objective = bobj
	energyRes, err = Run(m, inst, boundOpt)
	if err != nil {
		return Result{}, Result{}, err
	}
	// Predict-then-measure methods (EML/SAML) search the bound on
	// predictions and can land just outside it — or on a higher-energy
	// configuration — once measured. The time optimum is itself feasible
	// by construction, so the constrained result is never allowed to be
	// worse than the reference in both dimensions. The fallback keeps
	// the bounded run's effort accounting: that search still executed.
	// It carries no certificate or pool: the time run's certify the
	// time objective, not the bounded one, and its search value is the
	// bounded objective's measured value, not the time run's seconds.
	if energyRes.MeasuredE() > bound || energyRes.MeasuredJ() > timeRes.MeasuredJ() {
		fallback := timeRes
		fallback.Objective = bobj.Name()
		fallback.MeasuredObjective = bobj.Value(fallback.MeasuredE(), fallback.MeasuredJ())
		fallback.SearchE = fallback.MeasuredObjective
		fallback.Cert, fallback.Pool = nil, nil
		fallback.SearchEvaluations = energyRes.SearchEvaluations
		fallback.Experiments = energyRes.Experiments
		energyRes = fallback
	}
	return timeRes, energyRes, nil
}
