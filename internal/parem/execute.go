package parem

import (
	"fmt"

	"hetopt/internal/automata"
	"hetopt/internal/offload"
	"hetopt/internal/space"
)

// ExecutionReport combines real matching results with modeled times.
type ExecutionReport struct {
	// Times are the modeled execution times for the actual input size.
	Times offload.Times
	// HostMatches and DeviceMatches are the real match counts of each
	// share; Matches is their sum.
	HostMatches, DeviceMatches, Matches uint64
	// HostBytes and DeviceBytes record the byte split.
	HostBytes, DeviceBytes int64
	// HostRun and DeviceRun describe the parallel-matching execution.
	HostRun, DeviceRun Result
}

// Execute really runs the matching engine over total bytes from src,
// split according to cfg: the host share on cfg.HostThreads workers and
// the device share on a device-simulating executor with
// cfg.DeviceThreads workers. Reported times come from p's performance
// model applied to the actual share sizes; match counts are real and
// chunking-independent.
func Execute(p *offload.Platform, w offload.Workload, cfg space.Config, d *automata.DFA, src Source, total int64) (ExecutionReport, error) {
	if err := w.Validate(); err != nil {
		return ExecutionReport{}, err
	}
	if total < 0 {
		return ExecutionReport{}, fmt.Errorf("parem: negative input size %d", total)
	}
	if total == 0 {
		return ExecutionReport{}, nil // nothing to do: empty report
	}
	if cfg.HostFraction < 0 || cfg.HostFraction > 100 {
		return ExecutionReport{}, fmt.Errorf("parem: host fraction %g outside [0,100]", cfg.HostFraction)
	}
	hostBytes := int64(float64(total) * cfg.HostFraction / 100)
	devBytes := total - hostBytes

	report := ExecutionReport{HostBytes: hostBytes, DeviceBytes: devBytes}

	// Model the times for the actual byte sizes.
	times, err := p.Measure(w.Scaled(float64(total)/(1<<20)), cfg)
	if err != nil {
		return ExecutionReport{}, err
	}
	report.Times = times

	// Real matching. The "device" executor runs the same engine: the
	// substitution for unavailable Xeon Phi hardware (DESIGN.md). The
	// device share resumes from the host share's final automaton state so
	// matches straddling the distribution boundary are counted exactly
	// once; the total therefore equals a sequential pass over the whole
	// input.
	boundary := d.Start
	if hostBytes > 0 {
		res, err := CountSource(d, src, hostBytes, Options{Workers: cfg.HostThreads})
		if err != nil {
			return ExecutionReport{}, fmt.Errorf("parem: host share: %w", err)
		}
		report.HostRun = res
		report.HostMatches = res.Matches
		boundary = res.Final
	}
	if devBytes > 0 {
		res, err := CountSource(d, Section(src, hostBytes), devBytes, Options{
			Workers:    cfg.DeviceThreads,
			StartState: &boundary,
		})
		if err != nil {
			return ExecutionReport{}, fmt.Errorf("parem: device share: %w", err)
		}
		report.DeviceRun = res
		report.DeviceMatches = res.Matches
	}
	report.Matches = report.HostMatches + report.DeviceMatches
	return report, nil
}
