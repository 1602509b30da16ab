package experiments

import (
	"fmt"

	"hetopt/internal/machine"
	"hetopt/internal/tables"
)

// RenderTable1 reproduces Table I: the considered parameters and values.
func (s *Suite) RenderTable1() string {
	tb := tables.New("Table I: parameter space", "parameter", "host", "device")
	v := s.Schema.Values()
	tb.AddRow("threads", fmt.Sprint(v.HostThreads), fmt.Sprint(v.DeviceThreads))
	tb.AddRow("affinity", affNames(v.HostAffinities), affNames(v.DeviceAffinities))
	fr := v.Fractions
	tb.AddRow("workload fraction",
		fmt.Sprintf("%g..%g (%d values)", fr[0], fr[len(fr)-1], len(fr)),
		"100 - host fraction")
	tb.AddRow("total configurations", fmt.Sprint(s.Schema.Size()), "")
	return tb.String()
}

func affNames(affs []machine.Affinity) string {
	out := ""
	for i, a := range affs {
		if i > 0 {
			out += ", "
		}
		out += a.String()
	}
	return out
}

// RenderTable2 reproduces Table II: properties of the optimization
// methods.
func RenderTable2() string {
	tb := tables.New("Table II: properties of optimization methods",
		"method", "space exploration", "evaluation", "effort", "accuracy", "prediction")
	tb.AddRow("EM", "enumeration", "measurements", "high", "optimal", "no")
	tb.AddRow("EML", "enumeration", "machine learning", "high", "near-optimal", "yes")
	tb.AddRow("SAM", "simulated annealing", "measurements", "medium", "near-optimal", "no")
	tb.AddRow("SAML", "simulated annealing", "machine learning", "medium", "near-optimal", "yes")
	return tb.String()
}

// RenderTable3 reproduces Table III: the hardware architecture of the
// (simulated) Emil platform.
func (s *Suite) RenderTable3() string {
	host, dev := s.Platform.Host(), s.Platform.Device()
	tb := tables.New("Table III: simulated hardware architecture",
		"specification", host.Name, dev.Name)
	tb.AddRow("core frequency [GHz]",
		fmt.Sprintf("%.1f - %.1f", host.BaseClockGHz, host.MaxClockGHz),
		fmt.Sprintf("%.3f - %.3f", dev.BaseClockGHz, dev.MaxClockGHz))
	tb.AddRow("# of cores", fmt.Sprint(host.TotalCores()), fmt.Sprint(dev.Sockets*dev.CoresPerSocket))
	tb.AddRow("# of threads", fmt.Sprint(host.TotalThreads()), fmt.Sprint(dev.Sockets*dev.CoresPerSocket*dev.ThreadsPerCore))
	tb.AddRow("cache [MB]", tables.F(host.CacheMB, 1), tables.F(dev.CacheMB, 1))
	tb.AddRow("max mem bandwidth [GB/s]", tables.F(host.MemBandwidthGBs, 1), tables.F(dev.MemBandwidthGBs, 1))
	tb.AddRow("memory [GB]", tables.F(host.MemoryGB, 0), tables.F(dev.MemoryGB, 0))
	tb.AddRow("SIMD width [bit]", fmt.Sprint(host.VectorBits), fmt.Sprint(dev.VectorBits))
	return tb.String()
}
