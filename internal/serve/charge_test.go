package serve

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestPlatformRejectsSpaceBeyondInt32Ordinals: a job on a schema with
// more configurations than an int32 memo ordinal addresses is refused
// instead of aliasing memo keys.
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
