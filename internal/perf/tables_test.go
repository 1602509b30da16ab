package perf

import (
	"math"
	"strings"
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

// TestLevelStampMatchesInPlace: the in-place staleness check a level
// table runs on every measurement agrees with building the model's
// stamp and comparing it as a value, after every kind of change to a
// stamped input and after changes to inputs the stamp leaves live.
func TestLevelStampMatchesInPlace(t *testing.T) {
	nan := math.NaN()
	for _, mut := range []struct {
		name  string
		apply func(m *Model)
	}{
		{"none", func(*Model) {}},
		{"noise-seed", func(m *Model) { m.Cal.NoiseSeed++ }},
		{"host-core-rate", func(m *Model) { m.Cal.HostCoreRateMBs *= 2 }},
		{"device-core-rate", func(m *Model) { m.Cal.DeviceCoreRateMBs *= 2 }},
		{"bytes-per-byte", func(m *Model) { m.Cal.BytesPerByte = 3 }},
		{"host-compact-bonus", func(m *Model) { m.Cal.HostCompactBonus = 1.3 }},
		{"host-none-penalty", func(m *Model) { m.Cal.HostNonePenalty = 0.5 }},
		{"host-scaling-exp", func(m *Model) { m.Cal.HostCoreScalingExp = 0.7 }},
		{"device-scaling-exp", func(m *Model) { m.Cal.DeviceCoreScalingExp = 0.7 }},
		{"bandwidth-efficiency", func(m *Model) { m.Cal.BandwidthEfficiency = 0.01 }},
		{"oversubscription-decay", func(m *Model) { m.Cal.OversubscriptionDecay = 0.5 }},
		{"device-balanced-bonus", func(m *Model) { m.Cal.DeviceBalancedBonus = 1.5 }},
		{"device-compact-bonus", func(m *Model) { m.Cal.DeviceCompactBonus = 1.5 }},
		{"nan-constant", func(m *Model) { m.Cal.DeviceCompactBonus = nan }},
		{"host-smt-gain-slice", func(m *Model) { m.Cal.HostSMTGain = append([]float64(nil), m.Cal.HostSMTGain...) }},
		{"device-smt-gain-shorter", func(m *Model) { m.Cal.DeviceSMTGain = m.Cal.DeviceSMTGain[:1] }},
		{"host-processor-copy", func(m *Model) { h := *m.Host; m.Host = &h }},
		{"host-bandwidth", func(m *Model) { h := *m.Host; h.MemBandwidthGBs /= 20; m.Host = &h }},
		{"device-cores", func(m *Model) { m.Device.CoresPerSocket /= 2 }},
		{"host-sockets", func(m *Model) { m.Host.Sockets = 1 }},
		{"host-threads-per-core", func(m *Model) { m.Host.ThreadsPerCore = 1 }},
		{"device-reserved-cores", func(m *Model) { m.Device.ReservedCores++ }},
		{"device-affinities-slice", func(m *Model) { m.Device.Affinities = m.Device.Affinities[:1] }},
		{"nil-device", func(m *Model) { m.Device = nil }},
		{"live-constants", func(m *Model) {
			m.Cal.HostSetupSec, m.Cal.NoiseStdHost, m.Cal.DeviceIdleW, m.Cal.NoiseStdDevicePower = 0.5, 0, 80, 0.2
		}},
	} {
		m := NewPaperModel()
		stamp := m.levelStamp()
		mut.apply(m)
		if got, want := stamp.matches(m), m.levelStamp() == stamp; got != want {
			t.Errorf("%s: in-place check says %v, value comparison %v", mut.name, got, want)
		}
		if strings.HasPrefix(mut.name, "device-") || mut.name == "nil-device" {
			continue
		}
		nilDevice := NewModel(machine.XeonE5Host(), nil, DefaultCalibration())
		stamp = nilDevice.levelStamp()
		mut.apply(nilDevice)
		if got, want := stamp.matches(nilDevice), nilDevice.levelStamp() == stamp; got != want {
			t.Errorf("%s on a model without a device: in-place check says %v, value comparison %v", mut.name, got, want)
		}
	}
}
