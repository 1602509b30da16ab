package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// newShared builds the shared measurements of a workload on the paper
// platform and schema.
func newShared(t testing.TB, platform *offload.Platform, w offload.Workload) *SharedMeasurements {
	t.Helper()
	s, err := NewSharedMeasurements(platform, w, space.PaperSchema())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// paperConfig decodes level indices of the paper schema.
func paperConfig(t testing.TB, idx ...int) space.Config {
	t.Helper()
	cfg, err := space.PaperSchema().Config(idx)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestMeasureCacheInterposes: with a SharedMeasurements view
// interposed via Instance.MeasureCache, a repeated run pays zero
// physical experiments (everything is served from the memo) and
// returns a bit-identical result — the contract the serving layer's
// cross-job sharing relies on.
func TestMeasureCacheInterposes(t *testing.T) {
	w := offload.GenomeWorkload(dna.Human)
	platform := offload.NewPlatform()
	inst := newShared(t, platform, w).Instance()
	opt := Options{Iterations: 80, Seed: 21}

	first, err := Run(SAM, &inst, opt)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.Experiments == 0 {
		t.Fatalf("first run paid no experiments; the cache must still charge unique measurements")
	}
	second, err := Run(SAM, &inst, opt)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if second.Experiments != 0 {
		t.Fatalf("second identical run paid %d experiments, want 0 (all served from the interposed cache)", second.Experiments)
	}
	if first.Config != second.Config || first.SearchE != second.SearchE ||
		first.Measured != second.Measured || first.MeasuredEnergy != second.MeasuredEnergy {
		t.Fatalf("cached run diverged:\n%+v\n%+v", first, second)
	}

	// A fresh instance without the cache reproduces the same result:
	// interposing a cache never changes a value.
	plain := &Instance{Schema: space.PaperSchema(), Measurer: NewMeasurer(platform, w)}
	third, err := Run(SAM, plain, opt)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if third.Config != first.Config || third.Measured != first.Measured {
		t.Fatalf("cache changed the result:\n%+v\n%+v", first, third)
	}
}

// TestSharedMemoChargesOncePerOrdinal: concurrent visitors of
// one view to one configuration charge its measurer exactly once,
// whichever of them — or another view — performs the shared
// measurement; an off-grid configuration is measured and charged on
// every visit and never shared.
func TestSharedMemoChargesOncePerOrdinal(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	shared := newShared(t, platform, w)
	cfg := paperConfig(t, 3, 1, 6, 0, 20)
	const jobs, visitors = 3, 8
	meas := make([]*Measurer, jobs)
	var wg sync.WaitGroup
	for j := range meas {
		meas[j] = NewMeasurer(platform, w)
		ev, err := shared.view(meas[j])
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < visitors; v++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := ev.Evaluate(cfg); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	for j, m := range meas {
		if m.Count() != 1 {
			t.Fatalf("job %d charged %d experiments for one configuration, want 1", j, m.Count())
		}
	}
	if shared.Unique() != 1 {
		t.Fatalf("shared memo measured %d times, want 1", shared.Unique())
	}
	off := cfg
	off.HostFraction = 61
	ev, err := shared.view(meas[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ev.Evaluate(off); err != nil {
			t.Fatal(err)
		}
	}
	if meas[0].Count() != 3 || shared.Unique() != 1 {
		t.Fatalf("off-grid visits: %d charged, %d shared; want 3, 1", meas[0].Count(), shared.Unique())
	}
}

// TestSharedMemoReplayedFailureUncharged: the view whose call
// ran a failing measurement is charged for it once; a view replaying
// that failure from the memo is not charged, since its experiment
// never ran.
func TestSharedMemoReplayedFailureUncharged(t *testing.T) {
	platform := offload.NewPlatform()
	bad := offload.Workload{Name: "bad", SizeMB: -1, Complexity: 1}
	shared := newShared(t, platform, bad)
	cfg := paperConfig(t, 3, 1, 6, 0, 20)
	payer, replayer := NewMeasurer(platform, bad), NewMeasurer(platform, bad)
	for _, m := range []*Measurer{payer, replayer} {
		ev, err := shared.view(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := ev.Evaluate(cfg); err == nil {
				t.Fatal("measuring an invalid workload succeeded")
			}
		}
	}
	if payer.Count() != 1 || replayer.Count() != 0 || shared.Unique() != 1 {
		t.Fatalf("charged %d and %d, measured %d; want 1, 0 and 1", payer.Count(), replayer.Count(), shared.Unique())
	}
}

// TestSharedMemoDeduplicates: one view asked for the same
// configuration repeatedly measures and charges it once, and serves
// exactly the value a direct measurement returns.
func TestSharedMemoDeduplicates(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	shared := newShared(t, platform, w)
	inst := shared.Instance()
	cfg := paperConfig(t, 3, 1, 6, 0, 20)
	other := paperConfig(t, 3, 1, 6, 0, 15)
	for i := 0; i < 5; i++ {
		if _, err := inst.MeasureCache.Evaluate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inst.MeasureCache.Evaluate(other); err != nil {
		t.Fatal(err)
	}
	if got := inst.Measurer.Count(); got != 2 {
		t.Fatalf("view charged %d experiments, want 2", got)
	}
	if shared.Lookups() != 6 || shared.Unique() != 2 || shared.Hits() != 4 {
		t.Fatalf("memo accounting = %d/%d/%d, want 6/2/4", shared.Lookups(), shared.Unique(), shared.Hits())
	}
	a, _ := inst.MeasureCache.Evaluate(cfg)
	b, _ := NewMeasurer(platform, w).Evaluate(cfg)
	if a != b {
		t.Fatal("shared value differs from direct measurement")
	}
}

// TestSharedMemoHitZeroAllocs pins the memo-hit path of a view as
// allocation-free: once a configuration has been measured, every
// further Evaluate of it is an ordinal lookup, a sharded memo read and
// a charge-bit load. This is the path concurrent annealing chains,
// portfolio members and serve's jobs sit on.
func TestSharedMemoHitZeroAllocs(t *testing.T) {
	ev := newShared(t, offload.NewPlatform(), offload.GenomeWorkload(dna.Human)).Instance().MeasureCache
	cfg := paperConfig(t, 3, 1, 6, 0, 20)
	if _, err := ev.Evaluate(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ev.Evaluate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memo-hit Evaluate allocates %g allocs/op, want 0", allocs)
	}
}

// TestSharedMemoRefusesOtherMeasurer: a view is handed out only
// for a measurer of the memo's own workload on its own platform, so
// no run can read another workload's measurements.
func TestSharedMemoRefusesOtherMeasurer(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	shared := newShared(t, platform, w)
	for name, m := range map[string]*Measurer{
		"other workload": NewMeasurer(platform, offload.GenomeWorkload(dna.Mouse)),
		"other size":     NewMeasurer(platform, w.Scaled(2*w.SizeMB)),
		"other platform": NewMeasurer(offload.NewPlatform(), w),
	} {
		if ev, err := shared.view(m); err == nil || ev != nil {
			t.Errorf("%s: view handed out (err %v)", name, err)
		}
	}
	if _, err := shared.view(NewMeasurer(platform, w)); err != nil {
		t.Fatalf("own workload refused: %v", err)
	}
}

// TestSharedMemoRejectsSpaceBeyondInt32Ordinals: a schema with
// more configurations than an int32 memo ordinal addresses is refused
// up front instead of aliasing memo keys.
func TestSharedMemoRejectsSpaceBeyondInt32Ordinals(t *testing.T) {
	spec := space.PaperSpec()
	threads := make([]int, 10000)
	for i := range threads {
		threads[i] = i + 1
	}
	spec.HostThreads, spec.DeviceThreads = threads, threads
	huge, err := space.NewSchema(spec)
	if err != nil {
		t.Fatal(err)
	}
	if huge.Size() <= math.MaxInt32 {
		t.Fatalf("test schema has only %d configurations", huge.Size())
	}
	_, err = NewSharedMeasurements(offload.NewPlatform(), offload.GenomeWorkload(dna.Human), huge)
	if err == nil || !strings.Contains(err.Error(), "memo ordinal") {
		t.Fatalf("%d-configuration space: err %v, want the ordinal-range refusal", huge.Size(), err)
	}
}

// TestSharedMemoProofBesideSAMRuns: a Parallelism: 2 exact proof and
// two concurrent SAM runs on one SharedMeasurements — racing on its
// memo's first misses while each run fills its own noise-draw cache
// and charge bits — each return exactly what it returns alone on a
// fresh memo, experiments included. CI repeats it under the race
// detector.
func TestSharedMemoProofBesideSAMRuns(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	runs := []struct {
		method Method
		opt    Options
	}{
		{EM, Options{Strategy: strategy.Exact{Prove: true, PoolSize: 4}, Parallelism: 2, Objective: EnergyObjective{}}},
		{SAM, Options{Iterations: 300, Seed: 1, Restarts: 2, Parallelism: 2}},
		{SAM, Options{Iterations: 300, Seed: 2, Restarts: 2, Parallelism: 2, Objective: EnergyObjective{}}},
	}
	alone := make([]Result, len(runs))
	for i, r := range runs {
		inst := newShared(t, platform, w).Instance()
		res, err := Run(r.method, &inst, r.opt)
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = res
	}
	shared := newShared(t, platform, w)
	together := make([]Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst := shared.Instance()
			together[i], errs[i] = Run(r.method, &inst, r.opt)
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		a, b := alone[i], together[i]
		if a.Config != b.Config || a.SearchE != b.SearchE || a.Measured != b.Measured ||
			a.MeasuredEnergy != b.MeasuredEnergy || a.SearchEvaluations != b.SearchEvaluations ||
			a.Experiments != b.Experiments {
			t.Fatalf("run %d on a shared memo diverged:\nalone    %+v\ntogether %+v", i, a, b)
		}
	}
	if c, ok := together[0].Certificate(); !ok || !c.Optimal {
		t.Fatal("the exact run returned no optimality proof")
	}
}
