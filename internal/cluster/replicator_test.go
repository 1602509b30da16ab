package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestReplicatorDelivers: every enqueued item reaches every target.
func TestReplicatorDelivers(t *testing.T) {
	var mu sync.Mutex
	got := map[string][]string{}
	r := NewReplicator(8, 1, func(target string, payload []byte) error {
		mu.Lock()
		got[target] = append(got[target], string(payload))
		mu.Unlock()
		return nil
	})
	for i := 0; i < 4; i++ {
		if !r.Enqueue(Item{Targets: []string{"a", "b"}, Payload: []byte{byte('0' + i)}}) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	r.Close()
	if r.Sent() != 8 || r.Failed() != 0 || r.Dropped() != 0 {
		t.Fatalf("sent/failed/dropped = %d/%d/%d, want 8/0/0", r.Sent(), r.Failed(), r.Dropped())
	}
	mu.Lock()
	defer mu.Unlock()
	for _, target := range []string{"a", "b"} {
		if len(got[target]) != 4 {
			t.Fatalf("target %s got %d payloads, want 4", target, len(got[target]))
		}
		// One worker: per-target apply order matches enqueue order.
		for i, p := range got[target] {
			if p != string(byte('0'+i)) {
				t.Fatalf("target %s payload %d = %q, out of order", target, i, p)
			}
		}
	}
}

// TestReplicatorEnqueueNeverBlocks pins the warm-path contract that
// replicating from the pool worker depends on: with the single worker
// black-holed inside a send, Enqueue keeps returning immediately —
// filling the queue and then dropping — instead of blocking the caller.
func TestReplicatorEnqueueNeverBlocks(t *testing.T) {
	blocked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	r := NewReplicator(2, 1, func(string, []byte) error {
		once.Do(func() { close(blocked) })
		<-release
		return nil
	})
	defer func() { close(release); r.Close() }()

	if !r.Enqueue(Item{Targets: []string{"x"}, Payload: []byte("0")}) {
		t.Fatal("first enqueue rejected")
	}
	<-blocked // worker is now stuck holding item 0

	// Fill the 2-slot queue, then overflow it. Each call must return
	// promptly; a blocking Enqueue would hang the test here.
	done := make(chan int, 1)
	go func() {
		accepted := 0
		for i := 0; i < 5; i++ {
			if r.Enqueue(Item{Targets: []string{"x"}, Payload: []byte("x")}) {
				accepted++
			}
		}
		done <- accepted
	}()
	select {
	case accepted := <-done:
		if accepted != 2 {
			t.Fatalf("queue of 2 accepted %d of 5 items behind a stuck worker", accepted)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Enqueue blocked behind a black-holed send")
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", r.Dropped())
	}
}

// TestReplicatorCountsFailures: send errors are counted, not retried,
// and never stop the queue.
func TestReplicatorCountsFailures(t *testing.T) {
	calls := 0
	r := NewReplicator(8, 1, func(string, []byte) error {
		calls++
		if calls%2 == 1 {
			return errors.New("peer down")
		}
		return nil
	})
	for i := 0; i < 6; i++ {
		r.Enqueue(Item{Targets: []string{"x"}, Payload: []byte("p")})
	}
	r.Close()
	if r.Sent() != 3 || r.Failed() != 3 {
		t.Fatalf("sent/failed = %d/%d, want 3/3", r.Sent(), r.Failed())
	}
}

// TestReplicatorClose: Close is idempotent, drains queued items, and
// later Enqueues are counted drops.
func TestReplicatorClose(t *testing.T) {
	var delivered atomic64
	r := NewReplicator(8, 2, func(string, []byte) error {
		delivered.inc()
		return nil
	})
	for i := 0; i < 5; i++ {
		r.Enqueue(Item{Targets: []string{"x"}, Payload: []byte("p")})
	}
	r.Close()
	r.Close()
	if n := delivered.load(); n != 5 {
		t.Fatalf("delivered %d of 5 queued items before Close returned", n)
	}
	if r.Enqueue(Item{Targets: []string{"x"}, Payload: []byte("p")}) {
		t.Fatal("enqueue accepted after Close")
	}
	if r.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", r.Dropped())
	}
	if r.Enqueue(Item{Payload: []byte("p")}) != true {
		t.Fatal("target-less item must be accepted (and ignored) even closed")
	}
}

// atomic64 is a tiny counter helper (sync/atomic.Int64 spelled out to
// keep the test body readable).
type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) inc() {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

func (a *atomic64) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// TestRouterRoutesAndHealth covers the Route decision and the
// traffic-driven health bits.
func TestRouterRoutesAndHealth(t *testing.T) {
	nodes := threeNodes()
	rt, err := NewRouter(nodes[1], nodes, DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Self() != nodes[1] {
		t.Fatalf("Self = %q", rt.Self())
	}
	local, remote := 0, 0
	for _, k := range catalogKeys(1000) {
		r := rt.Route(k)
		if r.Owner == "" || r.Follower == "" || r.Owner == r.Follower {
			t.Fatalf("bad route %+v", r)
		}
		if r.Local != (r.Owner == nodes[1]) {
			t.Fatalf("Local flag disagrees with owner: %+v", r)
		}
		if r.Local {
			local++
		} else {
			remote++
		}
	}
	if local == 0 || remote == 0 {
		t.Fatalf("route split local=%d remote=%d: both paths must occur", local, remote)
	}

	if !rt.Up(nodes[0]) {
		t.Fatal("peers must start up")
	}
	rt.MarkDown(nodes[0])
	if rt.Up(nodes[0]) {
		t.Fatal("MarkDown did not stick")
	}
	rt.MarkUp(nodes[0])
	if !rt.Up(nodes[0]) {
		t.Fatal("MarkUp did not stick")
	}
	if rt.Up("http://unknown:1") {
		t.Fatal("unknown node reported up")
	}

	if _, err := NewRouter("http://not-a-member:1", nodes, 0); err == nil {
		t.Fatal("router accepted a self outside the peer set")
	}
}
