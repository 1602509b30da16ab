package perf

import "hetopt/internal/machine"

// SideLookup is what a side's tables answer for one (threads, affinity)
// level under a workload's traits: its rate and its used cores.
type SideLookup struct {
	Rate     float64
	RateErr  error
	Cores    int
	CoresErr error
}

// Lookup answers level (threads, aff) of the host side, or of the
// device side when device is set, through the model's tables.
func (m *Model) Lookup(device bool, threads int, aff machine.Affinity, w Traits) SideLookup {
	var l SideLookup
	s := hostSide
	if device {
		s = deviceSide
		l.Rate, l.RateErr = m.DeviceThroughputFor(threads, aff, w)
	} else {
		l.Rate, l.RateErr = m.HostThroughputFor(threads, aff, w)
	}
	l.Cores, l.CoresErr = m.coresUsed(s, threads, aff)
	return l
}

// Direct answers what Lookup answers, computed directly: hostRateDirect
// or devRateDirect with the trait-scaled core rate, and machine.Place.
func (m *Model) Direct(device bool, threads int, aff machine.Affinity, w Traits) SideLookup {
	var l SideLookup
	bpb := w.bytesPerByteOr(m.cal.BytesPerByte)
	p := m.host
	if device {
		p = m.device
		l.Rate, l.RateErr = m.devRateDirect(threads, aff, m.cal.DeviceCoreRateMBs*factorOrDefault(w.DeviceRateFactor), bpb)
	} else {
		l.Rate, l.RateErr = m.hostRateDirect(threads, aff, m.cal.HostCoreRateMBs*factorOrDefault(w.HostRateFactor), bpb)
	}
	pl, err := machine.Place(p, threads, aff)
	l.Cores, l.CoresErr = pl.CoresUsed, err
	return l
}
