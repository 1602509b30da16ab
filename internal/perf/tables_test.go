package perf

import (
	"math"
	"testing"

	"hetopt/internal/machine"
)

// TestTableCacheRevalidatesAfterMutation pins the placement tables'
// revalidation: after a warm lookup, mutating a fingerprinted input —
// a scalar constant, a replaced SMT-gain slice, a processor field —
// must make HostThroughputFor and DeviceThroughputFor return exactly
// the uncached computation under the new calibration, never the stale
// cached rate.
func TestTableCacheRevalidatesAfterMutation(t *testing.T) {
	w := Traits{Name: "human", HostRateFactor: 1.1, BytesPerByte: 2}
	for _, mut := range []struct {
		name  string
		apply func(m *Model)
	}{
		{"host-compact-bonus", func(m *Model) { m.Cal.HostCompactBonus = 1.3 }},
		{"host-none-penalty", func(m *Model) { m.Cal.HostNonePenalty = 0.5 }},
		{"host-scaling-exp", func(m *Model) { m.Cal.HostCoreScalingExp = 0.7 }},
		{"bandwidth-efficiency", func(m *Model) { m.Cal.BandwidthEfficiency = 0.01 }},
		{"oversubscription-decay", func(m *Model) { m.Cal.OversubscriptionDecay = 0.5 }},
		{"host-smt-gain-slice", func(m *Model) { m.Cal.HostSMTGain = []float64{1, 1.9} }},
		{"device-smt-gain-slice", func(m *Model) { m.Cal.DeviceSMTGain = []float64{1, 1.2, 1.3, 1.4} }},
		{"device-balanced-bonus", func(m *Model) { m.Cal.DeviceBalancedBonus = 1.5 }},
		{"host-bandwidth", func(m *Model) { h := *m.Host; h.MemBandwidthGBs /= 20; m.Host = &h }},
		{"device-cores", func(m *Model) { d := *m.Device; d.CoresPerSocket /= 2; m.Device = &d }},
	} {
		m := NewPaperModel()
		probe := func() (host, dev [3]float64) {
			for i, aff := range []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact} {
				r, err := m.HostThroughputFor(96, aff, w)
				if err != nil {
					t.Fatal(err)
				}
				host[i] = r
			}
			for i, aff := range []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact} {
				r, err := m.DeviceThroughputFor(180, aff, w)
				if err != nil {
					t.Fatal(err)
				}
				dev[i] = r
			}
			return host, dev
		}
		beforeHost, beforeDev := probe() // warm the tables
		mut.apply(m)
		host, dev := probe()
		// A zero-value Model has no tables and computes directly.
		direct := &Model{Host: m.Host, Device: m.Device, Cal: m.Cal}
		m = direct
		wantHost, wantDev := probe()
		for i := range host {
			if math.Float64bits(host[i]) != math.Float64bits(wantHost[i]) || math.Float64bits(dev[i]) != math.Float64bits(wantDev[i]) {
				t.Fatalf("%s: cached rates host %v device %v, uncached host %v device %v", mut.name, host, dev, wantHost, wantDev)
			}
		}
		if host == beforeHost && dev == beforeDev {
			t.Fatalf("%s: mutation moved no rate; the check proves nothing", mut.name)
		}
	}
}
