// Command hetserved serves tuning-as-a-service: an HTTP/JSON API that
// answers "what is the near-optimal configuration for workload W under
// objective O?" queries as asynchronous jobs on a bounded worker pool,
// with a warm-start result store answering repeat queries from cache.
//
// Usage:
//
//	hetserved -addr :8080 -workers 4 -queue 64 -cache-size 1024
//
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"genome":"human","method":"sam","iterations":500,"seed":7}'
//	curl -s localhost:8080/v1/jobs/j-000001
//	curl -s -X POST localhost:8080/v1/jobs:batch \
//	  -d '{"template":{"method":"sam"},"alphas":[0,0.25,0.5,0.75,1]}'
//	curl -s localhost:8080/v1/metrics
//
// A re-POST of a request the store already holds (and any POST with
// ?wait=1) answers 200 with the result inline — one round-trip, no id,
// no poll.
//
// The server shuts down gracefully on SIGTERM/SIGINT: the listener
// closes first, then every accepted job — queued and in-flight —
// drains to completion (bounded by -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hetopt/internal/cluster"
	"hetopt/internal/scenario"
	"hetopt/internal/serve"
)

// params collects the validated CLI inputs.
type params struct {
	addr         string
	workers      int
	queue        int
	cacheSize    int
	parallel     int
	pretrain     bool
	drainTimeout time.Duration
	workload     string
	platform     string

	// Cluster mode: -peers lists every member's base URL (self
	// included) and -node-id names this node's entry in that list.
	peers          string
	nodeID         string
	replicate      bool
	forwardTimeout time.Duration
}

// clusterOptions derives the serve cluster configuration; nil when
// -peers is unset (single-node).
func (p *params) clusterOptions() *serve.ClusterOptions {
	if strings.TrimSpace(p.peers) == "" {
		return nil
	}
	var peers []string
	for _, raw := range strings.Split(p.peers, ",") {
		if n := strings.TrimSpace(raw); n != "" {
			peers = append(peers, strings.TrimRight(n, "/"))
		}
	}
	return &serve.ClusterOptions{
		NodeID:         strings.TrimRight(strings.TrimSpace(p.nodeID), "/"),
		Peers:          peers,
		Replicate:      p.replicate,
		ForwardTimeout: p.forwardTimeout,
	}
}

// validate rejects bad flag values before binding the listener. The
// sizing flags are strictly positive: a zero worker pool, queue or
// store would silently serve nothing (or grow without bound), so the
// flag layer rejects them the way hetopt/hetbench reject out-of-range
// budgets instead of clamping.
func (p *params) validate() error {
	if p.addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if p.workers <= 0 {
		return fmt.Errorf("-workers must be > 0, got %d", p.workers)
	}
	if p.queue <= 0 {
		return fmt.Errorf("-queue must be > 0, got %d", p.queue)
	}
	if p.cacheSize <= 0 {
		return fmt.Errorf("-cache-size must be > 0, got %d", p.cacheSize)
	}
	if p.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", p.parallel)
	}
	if p.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", p.drainTimeout)
	}
	if p.workload != "" {
		if _, err := scenario.ResolveWorkload(p.workload); err != nil {
			return fmt.Errorf("-workload: %v", err)
		}
	}
	if p.platform != "" {
		if _, err := scenario.PlatformByName(p.platform); err != nil {
			return fmt.Errorf("-platform: %v", err)
		}
	}
	if p.forwardTimeout <= 0 {
		return fmt.Errorf("-forward-timeout must be positive, got %v", p.forwardTimeout)
	}
	if cl := p.clusterOptions(); cl != nil {
		if cl.NodeID == "" {
			return fmt.Errorf("-peers needs -node-id naming this node's entry in the peer list")
		}
		if !strings.HasPrefix(cl.NodeID, "http://") && !strings.HasPrefix(cl.NodeID, "https://") {
			return fmt.Errorf("-node-id %q must be a base URL (http://host:port)", cl.NodeID)
		}
		// The router re-validates membership; checking here turns a
		// misconfigured node into a flag error before the bind.
		if _, err := cluster.NewRouter(cl.NodeID, cl.Peers, 0); err != nil {
			return fmt.Errorf("-peers: %v", err)
		}
	} else if strings.TrimSpace(p.nodeID) != "" {
		return fmt.Errorf("-node-id %q is set but -peers is empty", p.nodeID)
	}
	return nil
}

func main() {
	var p params
	flag.StringVar(&p.addr, "addr", ":8080", "listen address")
	flag.IntVar(&p.workers, "workers", 4, "worker-pool size (must be positive)")
	flag.IntVar(&p.queue, "queue", 64, "pending-job queue bound; full queue answers 429 (must be positive)")
	flag.IntVar(&p.cacheSize, "cache-size", 1024, "warm-start store capacity, LRU-evicted beyond it (must be positive)")
	flag.IntVar(&p.parallel, "parallel", 1, "per-job search worker count; never affects results")
	flag.BoolVar(&p.pretrain, "pretrain", false, "train the prediction models at startup instead of on the first EML/SAML job")
	flag.DurationVar(&p.drainTimeout, "drain-timeout", 60*time.Second, "graceful-shutdown budget for draining accepted jobs")
	flag.StringVar(&p.workload, "workload", "", `default workload for requests naming none (empty = "dna:human")`)
	flag.StringVar(&p.platform, "platform", "", `default platform for requests naming none (empty = "paper")`)
	flag.StringVar(&p.peers, "peers", "", "comma-separated base URLs of every cluster member, self included (empty = single-node)")
	flag.StringVar(&p.nodeID, "node-id", "", "this node's entry in -peers (required with -peers)")
	flag.BoolVar(&p.replicate, "replicate", true, "replicate completed store entries to each key's ring-successor follower")
	flag.DurationVar(&p.forwardTimeout, "forward-timeout", cluster.DefaultForwardTimeout, "per-hop budget for proxied requests (cold forwards block for compute)")
	flag.Parse()

	if err := p.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hetserved:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(p); err != nil {
		fmt.Fprintln(os.Stderr, "hetserved:", err)
		os.Exit(1)
	}
}

func run(p params) error {
	if err := p.validate(); err != nil {
		return err
	}
	s, err := serve.NewCluster(serve.Options{
		Workers:         p.workers,
		QueueSize:       p.queue,
		StoreSize:       p.cacheSize,
		Parallelism:     p.parallel,
		DefaultWorkload: p.workload,
		DefaultPlatform: p.platform,
		Cluster:         p.clusterOptions(),
	})
	if err != nil {
		return err
	}
	if p.pretrain {
		fmt.Println("hetserved: training prediction models...")
		if err := s.Pretrain(); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: p.addr, Handler: s}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	fmt.Printf("hetserved: listening on %s (%d workers, queue %d, store %d)\n",
		p.addr, p.workers, p.queue, p.cacheSize)
	for _, ep := range serve.Endpoints() {
		fmt.Println("  ", ep)
	}
	if cl := p.clusterOptions(); cl != nil {
		fmt.Printf("hetserved: cluster member %s of %d peers (replicate=%v, forward timeout %v)\n",
			cl.NodeID, len(cl.Peers), cl.Replicate, p.forwardTimeout)
		fmt.Println("   POST /v1/cluster/replicate")
	}

	select {
	case err := <-errCh:
		// ListenAndServe only returns on failure to bind or serve.
		return err
	case <-ctx.Done():
	}

	fmt.Println("hetserved: shutting down, draining accepted jobs...")
	shutCtx, cancel := context.WithTimeout(context.Background(), p.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("closing listener: %w", err)
	}
	if err := s.Drain(shutCtx); err != nil {
		return fmt.Errorf("draining jobs: %w", err)
	}
	fmt.Println("hetserved: drained, bye")
	return nil
}
