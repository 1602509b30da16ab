package perf_test

import (
	"math"
	"sync"
	"testing"

	"hetopt/internal/machine"
	"hetopt/internal/perf"
	"hetopt/internal/scenario"
)

// level is one side level of a platform under one workload's traits.
type level struct {
	device  bool
	threads int
	aff     machine.Affinity
	w       perf.Traits
}

func (l level) lookup(m *perf.Model) perf.SideLookup {
	return m.Lookup(l.device, l.threads, l.aff, l.w)
}

// shippedLevels lists every (threads, affinity) level of both sides of
// spec's schema under each divisible family's traits, and under its
// rate factors alone at the calibration's traffic ratio. The shipped
// families all differ in bytes-per-byte, so only the second set has
// entries that share a traffic ratio and differ in the trait-scaled
// core rate, which must therefore key the cache.
func shippedLevels(t *testing.T, spec scenario.PlatformSpec) []level {
	t.Helper()
	schema, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	v := schema.Values()
	var out []level
	for _, fam := range scenario.Families() {
		if fam.IsDAG() {
			continue
		}
		w := fam.DefaultWorkload().Traits()
		factors := perf.Traits{HostRateFactor: w.HostRateFactor, DeviceRateFactor: w.DeviceRateFactor}
		for _, w := range []perf.Traits{w, factors} {
			for _, th := range v.HostThreads {
				for _, a := range v.HostAffinities {
					out = append(out, level{false, th, a, w})
				}
			}
			for _, th := range v.DeviceThreads {
				for _, a := range v.DeviceAffinities {
					out = append(out, level{true, th, a, w})
				}
			}
		}
	}
	return out
}

// sameLookup compares two answers bit for bit, errors by message.
func sameLookup(a, b perf.SideLookup) bool {
	sameErr := func(x, y error) bool {
		return (x == nil) == (y == nil) && (x == nil || x.Error() == y.Error())
	}
	return math.Float64bits(a.Rate) == math.Float64bits(b.Rate) && a.Cores == b.Cores &&
		sameErr(a.RateErr, b.RateErr) && sameErr(a.CoresErr, b.CoresErr)
}

// TestRateCacheMatchesDirect: at every level of each shipped platform,
// under each divisible family's traits, the cached rate and used cores
// equal the direct computation bit for bit, both on the miss that fills
// the entry and on the hit that reads it.
func TestRateCacheMatchesDirect(t *testing.T) {
	for _, spec := range scenario.Platforms() {
		m := spec.Model()
		levels := shippedLevels(t, spec)
		for pass := 0; pass < 2; pass++ {
			for _, l := range levels {
				got, want := l.lookup(m), m.Direct(l.device, l.threads, l.aff, l.w)
				if !sameLookup(got, want) {
					t.Fatalf("%s %+v pass %d: cached %+v, direct %+v", spec.Name, l, pass, got, want)
				}
			}
		}
	}
}

// TestRateCacheRacingFirstLookups: eight goroutines making the first
// lookups on a fresh model, each starting at a different level, get
// what a serial run on another fresh model gets.
func TestRateCacheRacingFirstLookups(t *testing.T) {
	const workers = 8
	for _, spec := range scenario.Platforms() {
		levels := shippedLevels(t, spec)
		serial := spec.Model()
		want := make([]perf.SideLookup, len(levels))
		for i, l := range levels {
			want[i] = l.lookup(serial)
		}
		m := spec.Model()
		got := make([][]perf.SideLookup, workers)
		var wg sync.WaitGroup
		for g := range got {
			got[g] = make([]perf.SideLookup, len(levels))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range levels {
					i := (j + g*len(levels)/workers) % len(levels)
					got[g][i] = levels[i].lookup(m)
				}
			}()
		}
		wg.Wait()
		for g := range got {
			for i, l := range levels {
				if !sameLookup(got[g][i], want[i]) {
					t.Fatalf("%s %+v, goroutine %d: %+v, serial %+v", spec.Name, l, g, got[g][i], want[i])
				}
			}
		}
	}
}
