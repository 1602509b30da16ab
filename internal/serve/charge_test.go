package serve

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hetopt/internal/core"
	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/search"
	"hetopt/internal/space"
)

// TestExperimentsIndependentOfParallelismAndSharing: a 4-restart job's
// result — Experiments included — is identical at Parallelism 1 on an
// idle server and at Parallelism 4 while a concurrent job on the same
// workload fills the shared memo. Double charging, or charging that
// depends on which job paid a measurement, would show up here.
func TestExperimentsIndependentOfParallelismAndSharing(t *testing.T) {
	norm := func(r TuneRequest) TuneRequest {
		n, err := r.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	job := norm(TuneRequest{Method: "sam", Iterations: 300, Restarts: 4, Seed: 11})
	fill := norm(TuneRequest{Method: "sam", Iterations: 600, Restarts: 4, Seed: 12})
	newServer := func(parallelism int) *Server {
		s := New(Options{Workers: 1, QueueSize: 4, Parallelism: parallelism})
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Drain(ctx)
		})
		return s
	}
	want, err := newServer(1).runTune(job)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		s := newServer(4)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.runTune(fill); err != nil {
				t.Error(err)
			}
		}()
		got, err := s.runTune(job)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got.Experiments != want.Experiments {
			t.Fatalf("round %d: Experiments %d at Parallelism 4 beside a filler job, %d alone at Parallelism 1",
				round, got.Experiments, want.Experiments)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: result differs:\n got %+v\nwant %+v", round, got, want)
		}
	}
}

// TestMemoEvalChargesOncePerOrdinal: concurrent visitors of one job to
// one configuration charge that job exactly once, whichever of them —
// or another job — performs the shared measurement.
func TestMemoEvalChargesOncePerOrdinal(t *testing.T) {
	platform := offload.NewPlatform()
	schema := space.PaperSchema()
	w := offload.GenomeWorkload(dna.Human)
	shared := &workloadState{
		memo:  search.NewShardedMemo[int32, offload.Measurement](16, hashOrdinal),
		table: platform.NewMeasureTable(w, schema),
	}
	cfg, err := schema.Config([]int{3, 1, 6, 0, 20})
	if err != nil {
		t.Fatal(err)
	}
	const jobs, visitors = 3, 8
	meas := make([]*core.Measurer, jobs)
	var wg sync.WaitGroup
	for j := range meas {
		meas[j] = core.NewMeasurer(platform, w)
		ev := newMemoEval(schema, shared, meas[j])
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
	if shared.memo.Unique() != 1 {
		t.Fatalf("shared memo measured %d times, want 1", shared.memo.Unique())
	}
	// An off-grid configuration is measured and charged on every visit.
	off := cfg
	off.HostFraction = 61
	ev := newMemoEval(schema, shared, meas[0])
	for i := 0; i < 2; i++ {
		if _, err := ev.Evaluate(off); err != nil {
			t.Fatal(err)
		}
	}
	if meas[0].Count() != 3 || shared.memo.Unique() != 1 {
		t.Fatalf("off-grid visits: %d charged, %d shared; want 3, 1", meas[0].Count(), shared.memo.Unique())
	}
}

// TestPlatformRejectsSpaceBeyondInt32Ordinals: a schema with more
// configurations than an int32 memo ordinal addresses is refused
// up front instead of aliasing memo keys.
func TestPlatformRejectsSpaceBeyondInt32Ordinals(t *testing.T) {
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
	s := New(Options{Workers: 1, QueueSize: 1, Schema: huge})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	req, err := TuneRequest{Method: "sam", Iterations: 10, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.runTune(req); err == nil || !strings.Contains(err.Error(), "memo ordinal") {
		t.Fatalf("runTune on a %d-configuration space: err %v, want the ordinal-range refusal", huge.Size(), err)
	}
}
